//! A feature matrix with no columns is a valid request: `A · X` is then a
//! `rows × 0` matrix. Every kernel family must return that empty output
//! with a finite simulated time, with and without the LOA relayout,
//! through `Plan::execute`, `execute_resilient`, `Front::run_events` and
//! `DurableFront::run`. The Tensor cost model once divided by the number
//! of X fragments, which is zero here, so Tensor plans and Hybrid plans
//! with tensor windows panicked.

use std::path::PathBuf;
use std::sync::Arc;

use gpu_sim::DeviceSpec;
use graph_sparse::{gen, Csr, DenseMatrix};
use hc_core::{execute_resilient, CoreChoice, KernelFamily, Plan, PlanSpec, ResiliencePolicy};
use hc_serve::{
    DurabilityConfig, DurableFront, Front, FrontConfig, FrontEvent, FrontReport, FrontRequest,
    Request, TenantId,
};

fn durability(name: &str) -> DurabilityConfig {
    let dir = std::env::temp_dir();
    let path = |ext: &str| dir.join(format!("hc-zero-width-{}-{name}.{ext}", std::process::id()));
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

/// `z` is the empty output of `a`: `a.nrows` rows, no columns.
fn assert_empty_output(z: &DenseMatrix, a: &Csr, ctx: &str) {
    assert_eq!((z.rows, z.cols), (a.nrows, 0), "{ctx}: output shape");
    assert!(z.data.is_empty(), "{ctx}: output data");
}

fn assert_served(rep: &FrontReport, a: &Csr, requests: usize, ctx: &str) {
    assert_eq!(rep.responses.len(), requests, "{ctx}: responses");
    for r in &rep.responses {
        let z = r
            .outcome
            .z()
            .unwrap_or_else(|| panic!("{ctx}: request {} failed: {:?}", r.trace_index, r.outcome));
        assert_empty_output(z, a, ctx);
        assert!(r.exec_sim_ms.is_finite(), "{ctx}: exec time");
        assert!(r.latency_sim_ms.is_finite(), "{ctx}: latency");
    }
}

#[test]
fn zero_width_features_give_an_empty_output_through_every_path() {
    let dev = DeviceSpec::rtx3090();
    // Dense communities: the hybrid selector sends some windows to the
    // Tensor cores.
    let a = Arc::new(gen::community(256, 1_500, 8, 0.9, 1));
    let x = DenseMatrix::zeros(a.ncols, 0);
    let hybrid = Plan::prepare(&a, PlanSpec::hybrid(), &dev);
    assert!(
        hybrid.pre.choices.contains(&CoreChoice::Tensor),
        "the graph must have tensor windows"
    );

    for family in KernelFamily::ALL {
        for use_loa in [false, true] {
            let spec = PlanSpec { family, use_loa };
            let ctx = format!("{family:?}, LOA {use_loa}");

            let plan = Plan::prepare(&a, spec, &dev);
            let r = plan.execute(&a, &x, &dev);
            assert_empty_output(&r.z, &a, &ctx);
            assert!(r.run.time_ms.is_finite(), "{ctx}: execute time");

            let run = execute_resilient(&plan, &a, &x, &dev, &ResiliencePolicy::default());
            let r = run
                .result
                .unwrap_or_else(|e| panic!("{ctx}: execute_resilient failed: {e}"));
            assert_empty_output(&r.z, &a, &ctx);
            assert!(r.run.time_ms.is_finite(), "{ctx}: resilient time");

            let events: Vec<FrontEvent> = (0..4)
                .map(|i| {
                    FrontEvent::Serve(FrontRequest {
                        tenant: TenantId(i % 2),
                        request: Request {
                            graph: Arc::clone(&a),
                            features: x.clone(),
                        },
                    })
                })
                .collect();
            let front = || {
                Front::new(
                    1 << 30,
                    spec,
                    2,
                    FrontConfig {
                        workers: 2,
                        arrivals_per_epoch: 2,
                        ..Default::default()
                    },
                )
            };
            let rep = front().run_events(&events, &dev);
            assert_served(&rep, &a, events.len(), &format!("{ctx}, Front"));

            let cfg = durability(&format!("{family:?}-{use_loa}"));
            let mut df = DurableFront::create(front(), cfg.clone()).expect("create the WAL");
            let attempt = df.run(&events, &dev).expect("durable run");
            cleanup(&cfg);
            let rep = attempt.report.expect("no crash is injected");
            assert_served(&rep, &a, events.len(), &format!("{ctx}, DurableFront"));
        }
    }
}
