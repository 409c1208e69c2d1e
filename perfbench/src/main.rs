//! perfbench: the repository's benchmark. One process runs one workload:
//!
//! ```text
//! perfbench --workload <spmm|serve|churn|train> --seed <n> --seconds <s> --trace <0|1> [--threads <n>]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off; `--trace 1`
//! measures the per-layer metrics in a separate traced run. The last line
//! of standard output is one JSON object; the exit code is 0 only when
//! every output check, determinism check and engagement guard passed.
//! See `perfbench/README.md` for the metrics and workloads.

mod bench;
mod churn;
mod host;
mod inputs;
mod serve;
mod spmm;
mod trace;
mod train;

use std::io::Write as _;
use std::time::Instant;

use bench::{metric, timed, Metric, Workload};
use trace::Tracer;

const WORKLOADS: [&str; 4] = ["spmm", "serve", "churn", "train"];
/// Setups per untraced run: at least `MIN_REPS`, and more while their
/// total stays under `SETUP_BUDGET_S`; `setup_s` is their median.
const SETUP_BUDGET_S: f64 = 2.5;
const MIN_REPS: usize = 3;
const MAX_REPS: usize = 200;

/// Every per-layer metric, in report order. Each is measured on the
/// workload that drives its layer (see README.md).
const PER_LAYER: [&str; 48] = [
    "sparse.fingerprint_ms",
    "sparse.partition_ms",
    "sparse.delta_apply_ms",
    "sparse.meta_bytes",
    "gpu_sim.cost_ms",
    "gpu_sim.dram_bytes_per_op",
    "gpu_sim.wmma_issues_per_op",
    "gpu_sim.cuda_fma_issues_per_op",
    "gpu_sim.makespan_cycles_per_op",
    "core.execute_ms",
    "core.numeric_ms",
    "core.prepare_ms",
    "core.prepare_sim_ms",
    "core.patch_ms",
    "core.patch_sim_ms",
    "core.tensor_window_share",
    "core.plan_bytes",
    "core.cost_hit_rate",
    "core.retries",
    "core.fallbacks",
    "core.wasted_sim_ms",
    "parallel.regions",
    "parallel.serial_fallbacks",
    "parallel.engaged_share",
    "serve.cache_hit_rate",
    "serve.cache_misses",
    "serve.cache_evictions",
    "serve.cohort_rate",
    "serve.mean_cohort_size",
    "serve.shed_queue",
    "serve.shed_quota",
    "serve.front_self_ms",
    "serve.stale_served",
    "serve.patched_plans",
    "serve.swaps",
    "serve.durable_overhead_ms",
    "serve.wal_bytes",
    "serve.wal_records",
    "serve.wal_replay_ms",
    "serve.recovery_patch_replays",
    "serve.recovery_full_prepares",
    "serve.recovery_sim_ms",
    "gnn.forward_ms",
    "gnn.backward_ms",
    "gnn.loss_ms",
    "gnn.forward_sim_ms",
    "gnn.backward_sim_ms",
    "trace.overhead_ms_per_op",
];

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
    threads: usize,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, false);
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut threads = nproc;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    *WORKLOADS
                        .iter()
                        .find(|w| **w == val)
                        .ok_or_else(|| format!("unknown workload {val:?}"))?,
                )
            }
            "--seed" => {
                seed = Some(
                    val.parse::<u64>()
                        .map_err(|_| format!("bad --seed {val:?}"))?,
                )
            }
            "--seconds" => {
                let s = val
                    .parse::<f64>()
                    .map_err(|_| format!("bad --seconds {val:?}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(format!("bad --seconds {val:?}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {val:?}")),
                }
            }
            "--threads" => {
                let n = val
                    .parse::<usize>()
                    .map_err(|_| format!("bad --threads {val:?}"))?;
                if n == 0 || n > nproc {
                    return Err(format!("--threads must be in 1..={nproc}"));
                }
                threads = n;
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        threads,
    })
}

fn build(name: &str, seed: u64) -> Box<dyn Workload> {
    match name {
        "spmm" => Box::new(spmm::setup(seed)),
        "serve" => Box::new(serve::setup(seed)),
        "churn" => Box::new(churn::setup(seed)),
        "train" => Box::new(train::setup(seed)),
        _ => unreachable!("workload names are validated"),
    }
}

/// Digest of a workload's first generated input.
fn probe(name: &str, seed: u64) -> u64 {
    match name {
        "spmm" => spmm::probe(seed),
        "serve" => serve::probe(seed),
        "churn" => churn::probe(seed),
        "train" => train::probe(seed),
        _ => unreachable!("workload names are validated"),
    }
}

/// What a run prints as its last line.
struct RunResult {
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
    problems: Vec<String>,
}

/// A different seed must generate different inputs.
fn check_seed(a: &Args, problems: &mut Vec<String>) {
    if probe(a.workload, a.seed) == probe(a.workload, a.seed.wrapping_add(1)) {
        problems.push("a different seed generated the same inputs".into());
    }
}

/// Ops that failed or gave a wrong output: in-pass counts for every pass
/// (all passes agree on them) plus the mismatches `verify` found.
fn failed_ops(t: &bench::Timed, verified_wrong: u64) -> u64 {
    (t.first.failed + t.first.wrong) * t.passes + verified_wrong
}

/// `--trace 0`: every end-to-end metric, tracing off.
fn untraced(a: &Args) -> RunResult {
    let mut problems = Vec::new();
    let mut setup_s = Vec::new();
    let mut digests = Vec::new();
    let mut w: Option<Box<dyn Workload>> = None;
    while setup_s.len() < MIN_REPS
        || (setup_s.iter().sum::<f64>() < SETUP_BUDGET_S && setup_s.len() < MAX_REPS)
    {
        drop(w.take());
        let t = Instant::now();
        let built = build(a.workload, a.seed);
        setup_s.push(t.elapsed().as_secs_f64());
        digests.push(built.input_digest());
        w = Some(built);
    }
    let mut w = w.expect("setup ran");
    if digests.windows(2).any(|d| d[0] != d[1]) {
        problems.push("two setups from one seed generated different inputs".into());
    }
    check_seed(a, &mut problems);

    let mut off = Tracer::new(false);
    let t = timed(w.as_mut(), a.threads, a.seconds, true, &mut off);
    if t.mismatched_passes > 0 {
        problems.push(format!(
            "{} of {} passes disagree with the first on sim time, counts or outputs",
            t.mismatched_passes, t.passes
        ));
    }
    hc_parallel::set_threads(1);
    let one = w.pass(1, &mut off);
    hc_parallel::set_threads(a.threads);
    if one.digest() != t.first.digest() {
        problems.push(format!(
            "a pass with 1 worker and 1 thread disagrees with {} workers and threads",
            a.threads
        ));
    }
    let wrong = w.verify(&t.first) * t.passes;
    if let Some(e) = &t.restart_error {
        problems.push(e.clone());
    }
    if let Err(e) = w.guard(&t.first) {
        problems.push(e);
    }
    if let Err(e) = t.first.check_split() {
        problems.push(e);
    }

    let f = &t.first;
    let sim_per_op = f.sim.total() / f.completed.max(1) as f64;
    let errors = t.errors + wrong;
    // A run whose ops all failed has no samples; it reports 0 and is
    // already marked incorrect.
    let or_zero = |v: &[f64]| if v.is_empty() { vec![0.0] } else { v.to_vec() };
    let (calls, restarts, sim_lat) = (
        or_zero(&t.calls_ms),
        or_zero(&t.restarts_ms),
        or_zero(&f.sim_lat),
    );
    let metrics = vec![
        metric("host_ops_per_s", t.ops_per_s(), "ops/s"),
        metric("cpu_ms_per_op", t.cpu_ms_per_op(), "ms"),
        metric("host_p50_ms", host::percentile(&calls, 50.0), "ms"),
        metric("host_p90_ms", host::percentile(&calls, 90.0), "ms"),
        metric("sim_p50_ms", host::percentile(&sim_lat, 50.0), "ms"),
        metric("sim_p99_ms", host::percentile(&sim_lat, 99.0), "ms"),
        metric("sim_ms_per_op", sim_per_op, "ms"),
        metric(
            "ok_rate",
            1.0 - errors as f64 / t.submitted.max(1) as f64,
            "ratio",
        ),
        metric("setup_s", host::median(&setup_s), "s"),
        metric("peak_rss_mb", host::peak_rss_mb(), "MB"),
        metric("recovery_ms", host::median(&restarts), "ms"),
    ];
    eprintln!(
        "perfbench {}: seed {}, {} passes, {} ops in {:.2} s at {} threads; {} calls; \
         pass wall ms p10/p50/p90 {:.1}/{:.1}/{:.1}",
        a.workload,
        a.seed,
        t.passes,
        t.completed,
        t.wall_s,
        a.threads,
        t.calls_ms.len(),
        1e3 * host::percentile(&t.pass_wall_s, 10.0),
        1e3 * host::percentile(&t.pass_wall_s, 50.0),
        1e3 * host::percentile(&t.pass_wall_s, 90.0),
    );
    RunResult {
        attempted: t.submitted,
        failed: failed_ops(&t, wrong),
        metrics,
        problems,
    }
}

/// One traced measurement of `name`: its per-layer metrics and a printed
/// table. `seconds` 0 runs a single pass.
fn trace_workload(
    name: &str,
    w: &mut dyn Workload,
    a: &Args,
    seconds: f64,
    problems: &mut Vec<String>,
) -> (Vec<Metric>, bench::Timed, Tracer) {
    hc_parallel::reset_pool_stats();
    let mut tr = Tracer::new(true);
    let t = timed(w, a.threads, seconds, false, &mut tr);
    let pool = hc_parallel::pool_stats();
    let spans = tr.totals();
    let mut est = Tracer::new(true);
    w.decompose(&t.first, &mut est);
    let est = est.totals();
    if let Err(e) = w.restart() {
        problems.push(e);
    }
    for check in [w.guard(&t.first), t.first.check_split()] {
        if let Err(e) = check {
            problems.push(e);
        }
    }
    let mut m = w.layers(&t.first, &spans, &est);
    if name == "spmm" {
        let passes = t.passes as f64;
        let (r, s) = (pool.parallel_regions as f64, pool.serial_fallbacks as f64);
        m.push(metric("parallel.regions", r / passes, "count"));
        m.push(metric("parallel.serial_fallbacks", s / passes, "count"));
        m.push(metric(
            "parallel.engaged_share",
            if r + s > 0.0 { r / (r + s) } else { 0.0 },
            "ratio",
        ));
    }
    print_table(name, &t, &spans, &est, &m);
    (m, t, tr)
}

fn print_table(
    name: &str,
    t: &bench::Timed,
    spans: &bench::Totals,
    est: &bench::Totals,
    m: &[Metric],
) {
    let ops = t.completed.max(1) as f64;
    println!(
        "== {name}: {} passes, {} ops, {:.1} ms CPU/op, {:.2} s wall",
        t.passes,
        t.completed,
        t.cpu_ms_per_op(),
        t.wall_s
    );
    println!(
        "{:<34} {:>8} {:>12} {:>12} {:>10} {:>14} {:>8}",
        "span", "calls", "total ms", "self ms", "self/op", "self CPU/op", "CPU %"
    );
    let cpu = t.cpu_ms.max(f64::MIN_POSITIVE);
    for (k, s) in spans {
        println!(
            "{:<34} {:>8} {:>12.3} {:>12.3} {:>10.4} {:>14.4} {:>7.1}%",
            k,
            s.calls,
            s.total_ms,
            s.self_ms,
            s.self_ms / ops,
            s.self_cpu_ms / ops,
            100.0 * s.self_cpu_ms / cpu
        );
    }
    let f = &t.first;
    if !est.is_empty() {
        println!(
            "estimated from outside (one pass of {} ops re-run by the benchmark):",
            f.completed
        );
        for (k, s) in est {
            println!(
                "{:<34} {:>8} {:>12.3} {:>12.3} {:>10.4}",
                k,
                s.calls,
                s.total_ms,
                s.self_ms,
                s.self_ms / f.completed.max(1) as f64
            );
        }
    }
    let total = f.sim.total();
    print!(
        "sim clock per pass: prepare {:.6} + patch {:.6} + exec {:.6} + wasted {:.6} \
         = sim_ms_per_op {:.6} x {} ops = {total:.6} ms",
        f.sim.prepare,
        f.sim.patch,
        f.sim.exec,
        f.sim.wasted,
        total / f.completed.max(1) as f64,
        f.completed,
    );
    match f.sim_library {
        Some(lib) => println!(
            "; the library reports {lib:.6} ms (equal: {})",
            f.check_split().is_ok()
        ),
        None => println!(),
    }
    if name == "spmm"
        && m.iter()
            .any(|x| x.name == "parallel.regions" && x.value == 0.0)
    {
        println!("parallel: the kernel pool was not engaged (0 parallel regions)");
    }
    for x in m {
        println!("  {:<34} {:>16.6} {}", x.name, x.value, x.unit);
    }
}

/// `--trace 1`: every per-layer metric. The named workload runs untraced
/// then traced for half the time each (the CPU difference is the tracing
/// overhead); each layer a different workload drives is measured on one
/// traced pass of that workload with the same seed. Every traced workload
/// is guarded; the named one's outputs are verified too.
fn traced(a: &Args) -> RunResult {
    let mut problems = Vec::new();
    check_seed(a, &mut problems);
    let mut w = build(a.workload, a.seed);
    let mut off = Tracer::new(false);
    let plain = timed(w.as_mut(), a.threads, a.seconds / 2.0, false, &mut off);
    let (mut metrics, t, tr) =
        trace_workload(a.workload, w.as_mut(), a, a.seconds / 2.0, &mut problems);
    if plain.first.digest() != t.first.digest() {
        problems.push("traced and untraced passes disagree".into());
    }
    for (phase, x) in [("untraced", &plain), ("traced", &t)] {
        if x.mismatched_passes > 0 {
            problems.push(format!(
                "{} of {} {phase} passes disagree with the first",
                x.mismatched_passes, x.passes
            ));
        }
    }
    // Every pass of both phases matched the verified one.
    let wrong = w.verify(&t.first);
    let attempted = plain.submitted + t.submitted;
    let failed = failed_ops(&plain, wrong * plain.passes) + failed_ops(&t, wrong * t.passes);
    metrics.push(metric(
        "trace.overhead_ms_per_op",
        t.cpu_ms_per_op() - plain.cpu_ms_per_op(),
        "ms/op",
    ));
    write_spans(a, &tr);
    drop(w);
    for other in WORKLOADS.iter().filter(|o| **o != a.workload) {
        let mut v = build(other, a.seed);
        let (m, _, _) = trace_workload(other, v.as_mut(), a, 0.0, &mut problems);
        for x in m {
            if !metrics.iter().any(|y| y.name == x.name) {
                metrics.push(x);
            }
        }
    }
    let mut ordered = Vec::new();
    for name in PER_LAYER {
        match metrics.iter().find(|m| m.name == name) {
            Some(m) => ordered.push(m.clone()),
            None => problems.push(format!("per-layer metric {name} was not measured")),
        }
    }
    RunResult {
        attempted,
        failed,
        metrics: ordered,
        problems,
    }
}

/// Write the traced phase's spans as JSON lines under the build directory.
fn write_spans(a: &Args, tr: &Tracer) {
    let dir = host::build_dir().join("perfbench-trace");
    let path = dir.join(format!("{}-seed{}.jsonl", a.workload, a.seed));
    let mut out = String::new();
    for s in tr.spans() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"cpu_ms\":{},\"parent\":{},\"op\":{}}}\n",
            s.name, s.start_ns, s.end_ns, s.cpu_ms, parent, s.op
        ));
    }
    match std::fs::create_dir_all(&dir).and_then(|_| std::fs::write(&path, out)) {
        Ok(()) => println!("spans: {} written to {}", tr.spans().len(), path.display()),
        Err(e) => eprintln!(
            "perfbench: could not write spans to {}: {e}",
            path.display()
        ),
    }
}

/// Pool calibration the benchmark pins: the spawn cost and per-unit cost
/// the library measures on the 2-vCPU reference host.
const SPAWN_NS: f64 = 40_000.0;
const NS_PER_UNIT: f64 = 0.2;

/// Load a fixed pool calibration instead of measuring one. A measured
/// calibration differs from run to run, and with it which parallel regions
/// fan out; pinned, the pool's decisions depend on the inputs alone.
fn pin_calibration() -> Result<(), String> {
    let dir = host::ScratchDir::new("calibration");
    let path = dir.path().join("hc-calibration.json");
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let body = format!(
        "{{\"version\":1,\"entries\":[{{\"cores\":{cores},\"spawn_ns\":{SPAWN_NS:.1},\"ns_per_unit\":{NS_PER_UNIT:.4}}}]}}\n"
    );
    std::fs::write(&path, body).map_err(|e| format!("write the pinned calibration: {e}"))?;
    std::env::set_var("HC_CALIBRATION_PATH", &path);
    let cal = hc_parallel::calibration();
    if cal.spawn_ns == SPAWN_NS && cal.ns_per_unit == NS_PER_UNIT {
        Ok(())
    } else {
        Err(format!(
            "the pool did not load the pinned calibration: {cal:?}"
        ))
    }
}

fn main() {
    let a = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--threads <n>]", WORKLOADS.join("|"));
            std::process::exit(2);
        }
    };
    hc_parallel::set_threads(a.threads);
    let pinned = pin_calibration();

    let mut out = if a.trace { traced(&a) } else { untraced(&a) };
    if let Err(e) = pinned {
        out.problems.push(e);
    }
    for m in &mut out.metrics {
        if !m.value.is_finite() {
            out.problems.push(format!("{} is not finite", m.name));
            m.value = 0.0;
        }
    }
    if out.failed > 0 {
        out.problems
            .push(format!("{} ops failed or gave a wrong output", out.failed));
    }
    for p in &out.problems {
        eprintln!("perfbench {}: FAILED: {p}", a.workload);
    }
    let correct = out.problems.is_empty() && out.failed == 0;
    let body: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    let mut stdout = std::io::stdout().lock();
    writeln!(
        stdout,
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted.max(1),
        out.failed,
        body.join(", ")
    )
    .expect("write the result");
    stdout.flush().expect("flush the result");
    drop(stdout);
    std::process::exit(if correct { 0 } else { 1 });
}
