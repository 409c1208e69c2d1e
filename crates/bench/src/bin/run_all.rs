//! Regenerates every table and figure in one run (the EXPERIMENTS.md input).
//!
//! Its output at the default scale is the committed `experiments_output.txt`.
//! CI diffs fresh runs against it, minus the header line, so a change to
//! any simulated number shows up there.
//!
//! `--threads N` forces the worker count for every parallel region (same
//! effect as `HC_THREADS=N`; the flag wins). Output matrices are
//! bit-identical at any thread count, so the tables are too.

fn usage() -> ! {
    eprintln!("usage: run_all [--threads N]");
    std::process::exit(2);
}

fn main() {
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--threads" => match args.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(n) if n > 0 => hc_parallel::set_threads(n),
                _ => {
                    eprintln!("--threads requires a positive integer");
                    usage();
                }
            },
            _ => usage(),
        }
    }

    use bench::experiments as e;
    let dev = gpu_sim::DeviceSpec::rtx3090();
    let mut c = bench::harness::DatasetCache::new();
    let scale = c.scale();
    let threads = hc_parallel::threads();
    println!(
        "== HC-SpMM reproduction: all experiments \
         (datasets at 1/{scale} scale, {threads} threads) ==\n"
    );

    println!("{}", e::characterization::fig01(&dev));
    println!("{}", e::characterization::table01(&mut c, &dev));
    println!("{}", e::characterization::fig08(&mut c, &dev));
    println!("{}", e::selector_exp::run());
    println!("{}", e::spmm::fig10(&mut c, &dev));
    println!("{}", e::ablations::table03(&mut c, &dev));
    println!("{}", e::ablations::table04(&mut c, &dev));
    println!("{}", e::ablations::table05(&mut c, &dev));
    println!("{}", e::combination::run(&mut c, &dev));
    println!("{}", e::training::fig11_12_gcn(&mut c, &dev));
    println!("{}", e::training::fig13_gin(&mut c, &dev));
    println!("{}", e::training::table06(&mut c, &dev));
    println!("{}", e::loa_exp::fig14(&mut c, &dev));
    println!("{}", e::loa_exp::fig15(&mut c, &dev));
    println!("{}", e::loa_exp::fig16(&mut c, &dev));
    println!("{}", e::spmm::table07(&mut c, &dev));
    println!("{}", e::spmm::table10(&dev));
    println!("{}", e::spmm::table11(&mut c, &dev));
    println!("{}", e::training::table12(&mut c));
    println!("{}", e::utilization::table13(&mut c, &dev));
    println!("{}", e::utilization::table14(&mut c, &dev));
    println!("{}", e::utilization::table15(&mut c, &dev));
    println!("{}", e::spmm::table16(&mut c));
    println!("{}", e::sensitivity::fig17(&mut c, &dev));
    println!("{}", e::extensions::dynamic_graphs(&mut c, &dev));
    println!("{}", e::extensions::vw_sensitivity(&mut c, &dev));
    println!("{}", e::extensions::concurrent_cores(&mut c, &dev));
    println!("{}", e::extensions::oom_chunking(&mut c, &dev));
    println!("{}", e::extensions::selector_vs_oracle(&mut c, &dev));
    println!("{}", e::extensions::feature_ablation(&dev));
    println!("{}", e::extensions::aggregation_share(&mut c, &dev));
    println!("{}", e::extensions::deep_models(&mut c, &dev));
    println!("{}", e::extensions::plan_cache_amortization(&mut c, &dev).0);
    println!("{}", e::extensions::fault_recovery(&mut c, &dev).0);
    println!("{}", e::extensions::hot_path(&mut c, &dev).0);
    println!("{}", e::extensions::serving_load(&mut c, &dev).0);
    println!("{}", e::extensions::churn(&mut c, &dev).0);
    println!("{}", e::extensions::recovery(&mut c, &dev).0);
    println!("{}", e::extensions::tile_compress(&mut c, &dev).0);
}
