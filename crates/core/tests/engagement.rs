//! Which pool regions fan out is fixed by the reference calibration, so a
//! given call makes the same engagement decision in every process on a
//! given core count. This pins the decisions of a hybrid `Plan::prepare`,
//! a first `Plan::execute` and a second one at 2 threads on the five
//! Table II analogues the spmm benchmark runs: PT, DD, AZ, YS and GH at
//! the default 1/64 scale, with X at each dataset's registry dim. The
//! first execute also builds the plan's block-cost cache; the second,
//! warm one is what the benchmark times.
//!
//! Its own binary and a single `#[test]` on purpose: the thread override,
//! the parallel mode and the pool counters are process-wide.

use gpu_sim::DeviceSpec;
use graph_sparse::datasets::DEFAULT_SCALE;
use graph_sparse::{DatasetId, DenseMatrix};
use hc_core::{Plan, PlanSpec};
use hc_parallel::{ParallelMode, PoolStats};

fn stats(parallel_regions: u64, serial_fallbacks: u64) -> PoolStats {
    PoolStats {
        parallel_regions,
        serial_fallbacks,
    }
}

#[test]
fn spmm_analogues_fan_out_the_same_regions_at_two_threads() {
    hc_parallel::set_threads(2);
    hc_parallel::set_parallel_mode(ParallelMode::Auto);
    let multi_core = hc_parallel::calibration().cores > 1;
    let dev = DeviceSpec::rtx3090();
    // The first and the second execute's regions that fan out and that
    // fall back, on two or more cores. Only the numeric loops of the
    // larger analogues clear the 3.2 M-op boundary.
    let expected = [
        (DatasetId::PT, (0, 2), (0, 1)),
        (DatasetId::DD, (1, 1), (1, 0)),
        (DatasetId::AZ, (1, 1), (1, 0)),
        (DatasetId::YS, (1, 1), (1, 0)),
        (DatasetId::GH, (1, 1), (1, 0)),
    ];
    // One core never fans out: every region that wanted two workers
    // falls back.
    let on_this_host = |(regions, fallbacks): (u64, u64)| {
        if multi_core {
            stats(regions, fallbacks)
        } else {
            stats(0, regions + fallbacks)
        }
    };
    for (id, cold, warm) in expected {
        let a = id.load_scaled(DEFAULT_SCALE).adj;
        let x = DenseMatrix::random_features(a.ncols, id.spec().dim, 7);

        hc_parallel::reset_pool_stats();
        let plan = Plan::prepare(&a, PlanSpec::hybrid(), &dev);
        assert_eq!(hc_parallel::pool_stats(), stats(0, 2), "{id:?} prepare");

        hc_parallel::reset_pool_stats();
        plan.execute(&a, &x, &dev);
        assert_eq!(
            hc_parallel::pool_stats(),
            on_this_host(cold),
            "{id:?} first execute"
        );

        hc_parallel::reset_pool_stats();
        plan.execute(&a, &x, &dev);
        assert_eq!(
            hc_parallel::pool_stats(),
            on_this_host(warm),
            "{id:?} second execute"
        );
    }
}
