//! Differential suite: serving through the plan cache must be
//! bit-identical to preparing a fresh plan per request — for every kernel
//! family, on generated graphs and the karate-club fixture, and even after
//! evictions have forced a re-prepare. The cache is an optimization; any
//! observable difference in output is a bug.

use std::sync::Arc;

use gpu_sim::DeviceSpec;
use graph_sparse::{gen, io, Csr, DenseMatrix};
use hc_core::ResiliencePolicy;
use hc_core::{KernelFamily, Plan, PlanSpec};
use hc_parallel::sync::thread;
use hc_serve::{Front, FrontRequest, PlanCache, Request, SharedPlanCache, TenantId};

fn karate() -> Csr {
    io::read_edge_list_file(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../fixtures/karate.txt"
    ))
    .expect("karate fixture must load")
    .gcn_normalize()
}

fn test_graphs() -> Vec<(&'static str, Csr)> {
    vec![
        ("karate", karate()),
        ("erdos_renyi", gen::erdos_renyi(256, 1_500, 11)),
        ("community", gen::community(512, 4_000, 16, 0.9, 12)),
        ("molecules", gen::molecules(300, 700, 13)),
    ]
}

/// Cold reference: a plan prepared from scratch for this one request.
fn cold(a: &Csr, x: &DenseMatrix, spec: PlanSpec, dev: &DeviceSpec) -> DenseMatrix {
    Plan::prepare(a, spec, dev).execute(a, x, dev).z
}

#[test]
fn cached_plans_are_bit_identical_to_cold_for_every_family() {
    let dev = DeviceSpec::rtx3090();
    for family in KernelFamily::ALL {
        let spec = PlanSpec {
            family,
            use_loa: false,
        };
        let mut cache = PlanCache::new(u64::MAX, spec);
        for (name, a) in &test_graphs() {
            let x = DenseMatrix::random_features(a.ncols, 16, 21);
            let want = cold(a, &x, spec, &dev);
            // Miss, then hit: both must equal the cold path exactly.
            for round in 0..2 {
                let (plan, hit) = cache.get_or_prepare(a, &dev);
                assert_eq!(hit, round > 0);
                assert_eq!(
                    plan.execute(a, &x, &dev).z,
                    want,
                    "{} on {name}: cached output (round {round}) differs from cold",
                    family.name()
                );
            }
        }
    }
}

#[test]
fn loa_cached_plans_match_cold_on_square_graphs() {
    let dev = DeviceSpec::rtx3090();
    let spec = PlanSpec {
        family: KernelFamily::Hybrid,
        use_loa: true,
    };
    let mut cache = PlanCache::new(u64::MAX, spec);
    for (name, a) in &test_graphs() {
        let x = DenseMatrix::random_features(a.ncols, 8, 22);
        let want = cold(a, &x, spec, &dev);
        let (plan, _) = cache.get_or_prepare(a, &dev);
        assert_eq!(
            plan.execute(a, &x, &dev).z,
            want,
            "LOA plan on {name}: cached differs from cold"
        );
        // And the LOA path must still be numerically the true product.
        assert!(a.spmm_reference(&x).max_abs_diff(&want) < 0.05);
    }
}

/// The concurrent sharded cache inherits the same contract: plans served
/// through `SharedPlanCache` — hit or miss, from any number of threads —
/// must be bit-identical to a cold prepare-per-request, for every kernel
/// family.
#[test]
fn shared_cache_is_bit_identical_to_cold_for_every_family() {
    let dev = DeviceSpec::rtx3090();
    for family in KernelFamily::ALL {
        let spec = PlanSpec {
            family,
            use_loa: false,
        };
        let cache = SharedPlanCache::new(u64::MAX / 8, spec, 4);
        for (name, a) in &test_graphs() {
            let x = DenseMatrix::random_features(a.ncols, 16, 21);
            let want = cold(a, &x, spec, &dev);
            for round in 0..2 {
                let (plan, hit) = cache.get_or_prepare(a, &dev);
                assert_eq!(hit, round > 0);
                assert_eq!(
                    plan.execute(a, &x, &dev).z,
                    want,
                    "{} on {name}: shared-cache output (round {round}) differs from cold",
                    family.name()
                );
            }
        }
    }
}

/// Concurrent serves through the shared cache agree with the cold path
/// even while other threads are mutating the same shards.
#[test]
fn shared_cache_is_bit_identical_under_concurrency() {
    let dev = DeviceSpec::rtx3090();
    let spec = PlanSpec::hybrid();
    let cache = SharedPlanCache::new(u64::MAX / 8, spec, 4);
    let graphs = test_graphs();
    let want: Vec<DenseMatrix> = graphs
        .iter()
        .map(|(_, a)| {
            let x = DenseMatrix::random_features(a.ncols, 12, 31);
            cold(a, &x, spec, &dev)
        })
        .collect();
    thread::scope(|s| {
        let (cache, graphs, want, dev) = (&cache, &graphs, &want, &dev);
        for t in 0..4usize {
            s.spawn(move |_| {
                for round in 0..2usize {
                    for idx in 0..graphs.len() {
                        let i = (idx + t) % graphs.len();
                        let (name, a) = &graphs[i];
                        let x = DenseMatrix::random_features(a.ncols, 12, 31);
                        let (plan, _) = cache.get_or_prepare(a, dev);
                        assert_eq!(
                            plan.execute(a, &x, dev).z,
                            want[i],
                            "thread {t} round {round} on {name}: differs from cold"
                        );
                    }
                }
            });
        }
    })
    .expect("serving threads must not panic");
    let s = cache.stats();
    assert_eq!(s.hits + s.misses, s.requests);
    assert_eq!(s.requests, 4 * 2 * 4);
}

#[test]
fn eviction_and_reprepare_keep_outputs_bit_identical() {
    let dev = DeviceSpec::rtx3090();
    let spec = PlanSpec::hybrid();
    let graphs: Vec<Arc<Csr>> = test_graphs()
        .into_iter()
        .map(|(_, g)| Arc::new(g))
        .collect();

    // Budget of largest-plan + smallest-plan: every plan is individually
    // retainable (nothing rejected), but the four together overflow, so
    // cycling through the graphs forces evictions and re-preparations.
    let sizes: Vec<u64> = graphs
        .iter()
        .map(|g| Plan::prepare(g, spec, &dev).approx_bytes())
        .collect();
    let budget = sizes.iter().max().unwrap() + sizes.iter().min().unwrap();
    let front = Front::in_order(budget, spec, ResiliencePolicy::default());

    let requests: Vec<FrontRequest> = (0..3)
        .flat_map(|round| {
            graphs.iter().enumerate().map(move |(i, g)| FrontRequest {
                tenant: TenantId(0),
                request: Request {
                    graph: Arc::clone(g),
                    features: DenseMatrix::random_features(g.ncols, 8, (round * 10 + i) as u64),
                },
            })
        })
        .collect();
    let rep = front.run_trace(&requests, &dev);

    let stats = rep.cache;
    assert_eq!(stats.requests, requests.len() as u64);
    assert_eq!(stats.hits + stats.misses, stats.requests);
    assert_eq!(stats.rejected, 0, "every plan fits the budget individually");
    assert!(
        stats.evictions > 0,
        "budget was meant to force evictions; got {stats:?}"
    );

    for (req, resp) in requests.iter().zip(&rep.responses) {
        let want = cold(&req.request.graph, &req.request.features, spec, &dev);
        assert_eq!(
            resp.z().expect("faults off: every request serves"),
            &want,
            "response after eviction/re-prepare differs from cold path"
        );
    }
}
