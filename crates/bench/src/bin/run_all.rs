//! Regenerates every table and figure in one run (the EXPERIMENTS.md input),
//! timing each experiment and writing the machine-readable report to
//! `BENCH.json` (path overridable via `HC_BENCH_JSON`).
//!
//! Its output at the default scale is the committed `experiments_output.txt`.
//! CI diffs fresh runs against it, minus the header line and the host
//! wall-clock table, so a change to any simulated number shows up there.
//!
//! `--threads N` forces the worker count for every parallel region (same
//! effect as `HC_THREADS=N`; the flag wins). Output matrices are
//! bit-identical at any thread count — the report's `bit_identical` flags
//! double-check that on every run.
//!
//! `--repeat N` runs each experiment N times and records the *minimum*
//! wall clock (best-of-N is the standard way to damp scheduler noise on
//! shared runners; repeats also exclude first-touch dataset generation).
//! Tables are printed once, from the first iteration.

use bench::harness::{f3, Table};
use bench::metrics::{self, BenchReport};

fn usage() -> ! {
    eprintln!("usage: run_all [--threads N] [--repeat N]");
    std::process::exit(2);
}

fn main() {
    let mut repeat = 1usize;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut positive = |flag: &str| match args.next().and_then(|v| v.parse::<usize>().ok()) {
            Some(n) if n > 0 => n,
            _ => {
                eprintln!("{flag} requires a positive integer");
                usage();
            }
        };
        match arg.as_str() {
            "--threads" => {
                let n = positive("--threads");
                hc_parallel::set_threads(n);
            }
            "--repeat" => repeat = positive("--repeat"),
            _ => usage(),
        }
    }

    use bench::experiments as e;
    let dev = gpu_sim::DeviceSpec::rtx3090();
    let mut c = bench::harness::DatasetCache::new();
    let scale = c.scale();
    let threads = hc_parallel::threads();
    let mut report = BenchReport::new(scale, threads);
    println!(
        "== HC-SpMM reproduction: all experiments \
         (datasets at 1/{scale} scale, {threads} threads) ==\n"
    );

    // Runs one experiment `repeat` times, prints its table once, records
    // the best wall clock and best CPU time (independently — each is a
    // lower envelope over the repeats).
    macro_rules! exp {
        ($name:literal, $body:expr) => {{
            let mut best = f64::INFINITY;
            let mut best_cpu = f64::INFINITY;
            for iter in 0..repeat {
                let cpu0 = metrics::cpu_time_ms();
                let t0 = std::time::Instant::now();
                let out = $body;
                best = best.min(t0.elapsed().as_secs_f64() * 1e3);
                if let (Some(c0), Some(c1)) = (cpu0, metrics::cpu_time_ms()) {
                    best_cpu = best_cpu.min(c1 - c0);
                }
                if iter == 0 {
                    println!("{}", out);
                }
            }
            let cpu = if best_cpu.is_finite() { best_cpu } else { 0.0 };
            report.push_experiment($name, best, cpu);
        }};
    }

    exp!("fig01_characterization", e::characterization::fig01(&dev));
    exp!("table01_costs", e::characterization::table01(&mut c, &dev));
    exp!(
        "fig08_window_scatter",
        e::characterization::fig08(&mut c, &dev)
    );
    exp!("selector_training", e::selector_exp::run());
    exp!("fig10_spmm", e::spmm::fig10(&mut c, &dev));
    exp!(
        "table03_generalization",
        e::ablations::table03(&mut c, &dev)
    );
    exp!("table04_shared_memory", e::ablations::table04(&mut c, &dev));
    exp!("table05_data_loading", e::ablations::table05(&mut c, &dev));
    exp!("combination_strategies", e::combination::run(&mut c, &dev));
    exp!(
        "fig11_12_gcn_training",
        e::training::fig11_12_gcn(&mut c, &dev)
    );
    exp!("fig13_gin_training", e::training::fig13_gin(&mut c, &dev));
    exp!("table06_kernel_fusion", e::training::table06(&mut c, &dev));
    exp!("fig14_loa_improvement", e::loa_exp::fig14(&mut c, &dev));
    exp!("fig15_loa_window_counts", e::loa_exp::fig15(&mut c, &dev));
    exp!("fig16_loa_overhead", e::loa_exp::fig16(&mut c, &dev));
    exp!("table07_fp_types", e::spmm::table07(&mut c, &dev));
    exp!("table10_sparsity_sweep", e::spmm::table10(&dev));
    exp!("table11_preprocessing", e::spmm::table11(&mut c, &dev));
    exp!("table12_memory_usage", e::training::table12(&mut c));
    exp!("table13_utilization", e::utilization::table13(&mut c, &dev));
    exp!(
        "table14_per_core_time",
        e::utilization::table14(&mut c, &dev)
    );
    exp!("table15_occupancy", e::utilization::table15(&mut c, &dev));
    exp!("table16_architectures", e::spmm::table16(&mut c));
    exp!("fig17_sensitivity", e::sensitivity::fig17(&mut c, &dev));
    exp!(
        "ext_dynamic_graphs",
        e::extensions::dynamic_graphs(&mut c, &dev)
    );
    exp!(
        "ext_vw_sensitivity",
        e::extensions::vw_sensitivity(&mut c, &dev)
    );
    exp!(
        "ext_concurrent_cores",
        e::extensions::concurrent_cores(&mut c, &dev)
    );
    exp!(
        "ext_oom_chunking",
        e::extensions::oom_chunking(&mut c, &dev)
    );
    exp!(
        "ext_selector_oracle",
        e::extensions::selector_vs_oracle(&mut c, &dev)
    );
    exp!(
        "ext_feature_ablation",
        e::extensions::feature_ablation(&dev)
    );
    exp!(
        "ext_aggregation_share",
        e::extensions::aggregation_share(&mut c, &dev)
    );
    exp!("ext_deep_models", e::extensions::deep_models(&mut c, &dev));
    exp!(
        "ext_plan_cache_amortization",
        e::extensions::plan_cache_amortization(&mut c, &dev).0
    );
    exp!(
        "ext_fault_recovery",
        e::extensions::fault_recovery(&mut c, &dev).0
    );
    exp!("ext_hot_path", e::extensions::hot_path(&mut c, &dev).0);
    exp!(
        "ext_serving_load",
        e::extensions::serving_load(&mut c, &dev).0
    );
    exp!("ext_churn", e::extensions::churn(&mut c, &dev).0);
    exp!("ext_recovery", e::extensions::recovery(&mut c, &dev).0);
    exp!(
        "ext_tile_compress",
        e::extensions::tile_compress(&mut c, &dev).0
    );

    // Kernel-family speedup vs a forced single-thread run (also the
    // determinism spot check).
    report.kernels = metrics::measure_kernel_speedups(&mut c, &dev);
    let mut t = Table::new(&[
        "Family",
        "Dataset",
        "Serial(ms)",
        "Parallel(ms)",
        "Speedup",
        "BitIdentical",
    ]);
    for k in &report.kernels {
        t.row(vec![
            k.family.clone(),
            k.dataset.clone(),
            f3(k.serial_ms),
            f3(k.parallel_ms),
            // A ratio of two runs of identical serial code is noise, not
            // a speedup.
            if k.serial_fallback {
                "not engaged".to_string()
            } else {
                format!("{:.2}x", k.speedup)
            },
            k.bit_identical.to_string(),
        ]);
    }
    println!("== Host parallelism: kernel-family wall clock at {threads} threads ==");
    println!("{}", t.render());
    if report.kernels.iter().any(|k| !k.bit_identical) {
        eprintln!("ERROR: parallel output diverged from single-thread output");
        std::process::exit(1);
    }

    // Written atomically (temp sibling + rename): a crash or a concurrent
    // reader never sees a half-written report — same helper the
    // durability layer uses for snapshots.
    let path = metrics::default_path();
    match hc_parallel::fsio::atomic_write(&path, report.to_json().as_bytes()) {
        Ok(()) => eprintln!("wrote {}", path.display()),
        Err(err) => {
            eprintln!("ERROR: could not write {}: {err}", path.display());
            std::process::exit(1);
        }
    }
}
