//! Command-line interface for the `hc-spmm` binary.
//!
//! Hand-rolled flag parsing (no CLI dependency): subcommands `datasets`,
//! `spmm`, `batch`, `loa`, `train`, `selector`. Run `hc-spmm help` for
//! usage.

use std::collections::HashMap;
use std::str::FromStr;
use std::sync::Arc;

use gnn::aggregator::{HcAggregator, KernelAggregator};
use gnn::gin::gin_propagation;
use gnn::train::{mean_timing, synthetic_labels, Trainer};
use gnn::{Gcn, Gin};
use gpu_sim::sanitizer::SanitizerConfig;
use gpu_sim::{DeviceKind, DeviceSpec, FaultConfig};
use graph_sparse::{gen, io, Csr, DatasetId, DenseMatrix};
use hc_core::{
    sanitize_family, FallbackStep, HcSpmm, KernelFamily, Loa, PlanSpec, ResiliencePolicy,
    SampleSpec, SpmmKernel,
};
use hc_serve::{Front, FrontConfig, FrontRequest, FrontResponse, Outcome, Request, TenantId};

type Flags = HashMap<String, String>;

/// Entry point; returns the process exit code. A bad invocation (unknown
/// command, a flag value that does not parse, an unreadable graph) prints
/// its message and exits 2.
pub fn run(args: Vec<String>) -> i32 {
    let mut it = args.into_iter();
    let cmd = it.next().unwrap_or_else(|| "help".into());
    let flags = parse_flags(it.collect());
    dispatch(&cmd, &flags).unwrap_or_else(|msg| {
        eprintln!("{msg}");
        2
    })
}

fn dispatch(cmd: &str, flags: &Flags) -> Result<i32, String> {
    // Global flag: worker-thread count for every parallel region (wins
    // over `HC_THREADS`; default = available cores). Output is
    // bit-identical at any setting. Absent, it reads as 0: no override.
    let threads = flag(flags, "threads", 0, "a positive integer", |&n| n > 0)?;
    if threads > 0 {
        hc_parallel::set_threads(threads);
    }
    match cmd {
        "datasets" => Ok(cmd_datasets()),
        "metrics" => cmd_metrics(flags),
        "spmm" => cmd_spmm(flags),
        "batch" => cmd_batch(flags),
        "serve-load" => cmd_serve_load(flags),
        "serve-churn" => cmd_serve_churn(flags),
        "loa" => cmd_loa(flags),
        "train" => cmd_train(flags),
        "selector" => Ok(cmd_selector()),
        "sanitize" => cmd_sanitize(flags),
        "help" | "--help" | "-h" => {
            print!("{}", usage());
            Ok(0)
        }
        other => Err(format!("unknown command {other:?}\n{}", usage())),
    }
}

/// Usage text.
pub fn usage() -> String {
    "\
hc-spmm — hybrid-core SpMM reproduction toolkit

USAGE:
  hc-spmm datasets                               list the Table II registry
  hc-spmm spmm     [--dataset CODE | --edge-list FILE] [--scale N]
                   [--kernel hc|cusparse|sputnik|ge|tcgnn|dtc] [--dim N]
                   [--gpu 3090|4090|a100]        run one SpMM, report time
  hc-spmm batch    [--requests N] [--graphs N] [--cache-bytes B] [--dim N]
                   [--kernel straightforward|cuda|tensor|hybrid] [--loa]
                   [--nodes N] [--gpu 3090|4090|a100]
                   [--fault-rate P] [--fault-seed S] [--max-retries N]
                   serve a round-robin request stream through the
                   structure-keyed plan cache; reports per-request
                   hit/miss and outcome, amortized vs cold cost, cache
                   counters, and degradation stats. --fault-rate injects
                   a deterministic device-fault schedule; faulted
                   requests retry, fall back (tensor → cuda →
                   straightforward → CPU) or fail with a typed error.
                   Exits 1 if any request failed.
  hc-spmm serve-load [--requests N] [--graphs N] [--tenants N] [--nodes N]
                   [--dim N] [--cache-bytes B] [--workers N]
                   [--queue-depth N] [--tenant-quota N] [--epoch N]
                   [--max-cohort N] [--slo-ms MS] [--gpu 3090|4090|a100]
                   [--fault-rate P] [--fault-seed S] [--max-retries N]
                   push a multi-tenant request mix through the concurrent
                   serving front-end: epoch-batched admission with
                   per-tenant quotas and a bounded queue (overload sheds
                   with a typed error), structure-keyed cohorts that
                   amortize one plan preparation across every in-flight
                   request on the same graph, and p50/p99 simulated
                   latency plus per-tenant SLO accounting. Deterministic
                   at any --workers count. Exits 1 if any admitted
                   request failed.
  hc-spmm serve-churn [--requests N] [--mutations N] [--graphs N]
                   [--tenants N] [--nodes N] [--dim N] [--cache-bytes B]
                   [--workers N] [--queue-depth N] [--tenant-quota N]
                   [--epoch N] [--max-cohort N] [--slo-ms MS]
                   [--gpu 3090|4090|a100] [--wal PATH]
                   [--snapshot-every N] [--crash-at K] [--recover]
                   [--fault-rate P] [--fault-seed S] [--max-retries N]
                   serve a request mix under structure churn: edge
                   insert/delete deltas arrive on the control plane
                   between requests, the superseded plan keeps serving
                   (flagged stale) while an incremental patched plan is
                   built from the dirty row windows only, and the swap
                   is first-insert-wins with quarantine preserved.
                   Reports stale-serve counts and per-mutation patch
                   cost vs a from-scratch prepare. Exits 1 if any
                   admitted request failed. --wal write-ahead logs every
                   applied delta (checksummed, fsync-marked at epoch
                   barriers) and snapshots recoverable state to
                   PATH.snap every --snapshot-every epochs; --crash-at K
                   aborts at the K-th crash point (0-based), leaving the
                   log for a later run with --recover, which rebuilds
                   plans warm (prepare + patch replay), rolls torn WAL
                   tails back to the last fsync marker, and resumes the
                   trace where durability left off. --fault-rate injects
                   a device-fault schedule as in serve-load.
  hc-spmm metrics  [--dataset CODE | --edge-list FILE] [--scale N]
                   structural report: degrees, clustering, locality, windows
  hc-spmm loa      [--dataset CODE | --edge-list FILE] [--scale N] [--vw N]
                   run the layout optimizer, report improvement
  hc-spmm train    [--dataset CODE] [--scale N] [--model gcn|gin]
                   [--epochs N] [--hidden N]     train a GNN, report epochs
  hc-spmm selector retrain the core-selection model on every GPU preset
  hc-spmm sanitize [--dataset CODE | --edge-list FILE] [--scale N] [--dim N]
                   [--gpu 3090|4090|a100] [--windows N]
                   [--kernel straightforward|cuda|tensor|hybrid]
                   race / bounds / barrier / cost-conformance checks over
                   kernel window traces; with no graph flags, runs the
                   built-in suite (3 generated graphs + fixtures).
                   Exits non-zero when any check finds something.

Every command also accepts --threads N: worker-thread count for host
parallel regions (overrides HC_THREADS; default = available cores).
Results are bit-identical at any thread count.
"
    .into()
}

fn parse_flags(rest: Vec<String>) -> Flags {
    let mut flags = HashMap::new();
    let mut it = rest.into_iter().peekable();
    while let Some(tok) = it.next() {
        if let Some(name) = tok.strip_prefix("--") {
            let val = if it.peek().map(|v| !v.starts_with("--")).unwrap_or(false) {
                it.next().unwrap_or_default()
            } else {
                "true".into()
            };
            flags.insert(name.to_string(), val);
        } else {
            eprintln!("ignoring stray argument {tok:?}");
        }
    }
    flags
}

/// `--key`'s value: `default` when the flag is absent, else the value
/// parsed as `T` and accepted by `valid`. A value that does not parse or
/// is not valid is an error naming the flag and what it `requires`.
fn flag<T: FromStr>(
    flags: &Flags,
    key: &str,
    default: T,
    requires: &str,
    valid: impl Fn(&T) -> bool,
) -> Result<T, String> {
    let Some(v) = flags.get(key) else {
        return Ok(default);
    };
    v.parse()
        .ok()
        .filter(|x| valid(x))
        .ok_or_else(|| format!("--{key} requires {requires}, got {v:?}"))
}

/// A count flag: any non-negative integer.
fn flag_usize(flags: &Flags, key: &str, default: usize) -> Result<usize, String> {
    flag(flags, key, default, "a non-negative integer", |_| true)
}

/// `--kernel` as a plan family, when given.
fn kernel_family(flags: &Flags) -> Result<Option<KernelFamily>, String> {
    flags
        .get("kernel")
        .map(|name| {
            KernelFamily::parse(name).ok_or_else(|| {
                format!("unknown kernel family {name:?} (straightforward|cuda|tensor|hybrid)")
            })
        })
        .transpose()
}

/// The flags the serving subcommands share, parsed in one place.
struct ServeFlags {
    /// `--cache-bytes`: the plan cache's byte budget.
    cache_bytes: u64,
    /// The front knobs (`--workers`, `--queue-depth`, `--tenant-quota`,
    /// `--epoch`, `--max-cohort`, `--slo-ms`) and the resilience policy
    /// (`--max-retries`, `--fault-rate`, `--fault-seed`).
    front: FrontConfig,
    fault_rate: f64,
    fault_seed: u64,
}

impl ServeFlags {
    fn parse(flags: &Flags) -> Result<ServeFlags, String> {
        let fault_rate = flag(flags, "fault-rate", 0.0, "a probability in [0, 1]", |r| {
            (0.0..=1.0).contains(r)
        })?;
        let fault_seed = flag(flags, "fault-seed", 42, "an integer", |_| true)?;
        let front = FrontConfig {
            workers: flag_usize(flags, "workers", 0)?,
            queue_depth: flag_usize(flags, "queue-depth", 16)?,
            tenant_quota: flag_usize(flags, "tenant-quota", 8)?,
            arrivals_per_epoch: flag_usize(flags, "epoch", 16)?,
            max_cohort: flag_usize(flags, "max-cohort", 8)?,
            slo_sim_ms: flag(flags, "slo-ms", 50.0, "a positive number of ms", |&ms| {
                ms > 0.0
            })?,
            policy: ResiliencePolicy {
                max_retries: flag(flags, "max-retries", 2, "a non-negative integer", |_| true)?,
                faults: FaultConfig::uniform(fault_seed, fault_rate),
                ..Default::default()
            },
        };
        Ok(ServeFlags {
            cache_bytes: flag(flags, "cache-bytes", 64 << 20, "a byte count", |_| true)?,
            front,
            fault_rate,
            fault_seed,
        })
    }

    fn print_faults(&self) {
        if self.fault_rate > 0.0 {
            println!(
                "fault injection: rate {}, seed {}",
                self.fault_rate, self.fault_seed
            );
        }
    }
}

/// The serving mixes' structures: `distinct` community graphs of `nodes`
/// vertices.
fn serving_graphs(distinct: usize, nodes: usize) -> Vec<Arc<Csr>> {
    (0..distinct)
        .map(|s| Arc::new(gen::community(nodes, nodes * 8, 16, 0.9, s as u64 + 1)))
        .collect()
}

/// Arrival `i` of a serving mix: structures round-robin (cohort
/// material), tenants round-robin on their own stride so structure and
/// tenant decorrelate, features seeded by `i`.
fn mix_request(graphs: &[Arc<Csr>], i: usize, tenants: usize, dim: usize) -> FrontRequest {
    let graph = Arc::clone(&graphs[i % graphs.len()]);
    FrontRequest {
        tenant: TenantId((i % tenants) as u32),
        request: Request {
            features: DenseMatrix::random_features(graph.ncols, dim, i as u64),
            graph,
        },
    }
}

/// How a served request ended, for the per-request lines.
fn outcome_label(r: &FrontResponse) -> String {
    match &r.outcome {
        Outcome::Ok(_) => "ok".to_string(),
        Outcome::Degraded {
            fallback, retries, ..
        } => format!("degraded via {} ({retries} retries)", fallback.name()),
        Outcome::Failed(e) => {
            format!("{}: {e}", if r.is_rejected() { "shed" } else { "failed" })
        }
    }
}

fn device_for(flags: &Flags) -> DeviceSpec {
    match flags.get("gpu").map(|s| s.as_str()) {
        Some("4090") => DeviceSpec::new(DeviceKind::Rtx4090),
        Some("a100") | Some("A100") => DeviceSpec::new(DeviceKind::A100),
        _ => DeviceSpec::rtx3090(),
    }
}

fn load_graph(flags: &Flags) -> Result<(Csr, usize, String), String> {
    if let Some(path) = flags.get("edge-list") {
        let g = io::read_edge_list_file(path).map_err(|e| format!("reading {path}: {e}"))?;
        g.validate()
            .map_err(|e| format!("invalid graph in {path}: {e}"))?;
        let dim = flag_usize(flags, "dim", 64)?;
        return Ok((g, dim, path.clone()));
    }
    let code = flags
        .get("dataset")
        .map(|s| s.to_uppercase())
        .unwrap_or_else(|| "PM".into());
    let id = DatasetId::ALL
        .into_iter()
        .find(|d| d.code() == code)
        .ok_or_else(|| format!("unknown dataset code {code:?} (try `hc-spmm datasets`)"))?;
    let scale = flag_usize(flags, "scale", graph_sparse::datasets::DEFAULT_SCALE)?;
    let ds = id.load_scaled(scale);
    ds.adj
        .validate()
        .map_err(|e| format!("invalid graph from dataset {code}: {e}"))?;
    let dim = flag_usize(flags, "dim", ds.spec.dim.min(512))?;
    Ok((ds.adj, dim, format!("{} (1/{scale} scale)", ds.spec.name)))
}

fn cmd_datasets() -> i32 {
    println!(
        "{:<4} {:<12} {:>12} {:>13} {:>6}  structure",
        "code", "name", "vertices", "edges", "dim"
    );
    for id in DatasetId::ALL {
        let e = id.spec();
        println!(
            "{:<4} {:<12} {:>12} {:>13} {:>6}  {:?}",
            e.name_code, e.name, e.vertices, e.edges, e.dim, e.structure
        );
    }
    0
}

fn cmd_metrics(flags: &Flags) -> Result<i32, String> {
    use graph_sparse::metrics;
    let (graph, _, label) = load_graph(flags)?;
    let d = metrics::degree_stats(&graph);
    let w = metrics::window_stats(&graph);
    println!(
        "{label}: {} vertices, {} non-zeros",
        graph.nrows,
        graph.nnz()
    );
    println!(
        "degrees: mean {:.2}, median {}, max {} (skew {:.1}), isolated {:.1}%",
        d.mean,
        d.median,
        d.max,
        d.skew,
        d.isolated * 100.0
    );
    println!(
        "clustering {:.4} | locality spread {:.4} | far-gather fraction {:.3}",
        metrics::clustering_coefficient(&graph),
        metrics::locality_spread(&graph),
        metrics::far_gather_fraction(&graph, 64)
    );
    println!(
        "row windows: {} live, mean sparsity {:.3}, mean nnz-cols {:.1}, mean intensity {:.2}",
        w.windows, w.mean_sparsity, w.mean_nnz_cols, w.mean_intensity
    );
    Ok(0)
}

fn cmd_spmm(flags: &Flags) -> Result<i32, String> {
    let (graph, dim, label) = load_graph(flags)?;
    let dev = device_for(flags);
    let x = DenseMatrix::random_features(graph.nrows, dim, 1);
    let kernel: Box<dyn SpmmKernel> = match flags.get("kernel").map(|s| s.as_str()) {
        None | Some("hc") => Box::new(HcSpmm::default()),
        Some("cusparse") => Box::new(baselines::CusparseSpmm),
        Some("sputnik") => Box::new(baselines::SputnikSpmm),
        Some("ge") => Box::new(baselines::GeSpmm),
        Some("tcgnn") => Box::new(baselines::TcGnnSpmm::default()),
        Some("dtc") => Box::new(baselines::DtcSpmm::default()),
        Some(other) => return Err(format!("unknown kernel {other:?}")),
    };
    println!(
        "{label}: {} vertices, {} non-zeros, dim {dim}, {} on {:?}",
        graph.nrows,
        graph.nnz(),
        kernel.name(),
        dev.kind
    );
    let r = kernel.spmm(&graph, &x, &dev);
    let err = graph.spmm_reference(&x).max_abs_diff(&r.z);
    println!(
        "time {:.4} ms | DRAM {:.2} MB | blocks {} | max error vs reference {err:.2e}",
        r.run.time_ms,
        r.run.profile.dram_bytes() as f64 / 1e6,
        r.run.profile.blocks
    );
    Ok(0)
}

fn cmd_batch(flags: &Flags) -> Result<i32, String> {
    let dev = device_for(flags);
    let requests = flag_usize(flags, "requests", 32)?;
    let distinct = flag_usize(flags, "graphs", 4)?.max(1);
    let nodes = flag_usize(flags, "nodes", 1024)?;
    let dim = flag_usize(flags, "dim", 32)?;
    let serve = ServeFlags::parse(flags)?;
    let family = kernel_family(flags)?.unwrap_or(KernelFamily::Hybrid);
    let spec = PlanSpec {
        family,
        use_loa: flags.contains_key("loa"),
    };

    // A serving mix from one tenant: every graph past the first round
    // hits.
    let graphs = serving_graphs(distinct, nodes);
    let stream: Vec<FrontRequest> = (0..requests)
        .map(|i| mix_request(&graphs, i, 1, dim))
        .collect();

    println!(
        "batch: {requests} requests over {distinct} graphs ({nodes} vertices, dim {dim}), \
         {} plans, cache budget {} B, {:?}",
        family.name(),
        serve.cache_bytes,
        dev.kind
    );
    serve.print_faults();
    let front = Front::in_order(serve.cache_bytes, spec, serve.front.policy);
    let rep = front.run_trace(&stream, &dev);
    let responses = &rep.responses;
    let (mut exec_total, mut prepare_total, mut wasted_total) = (0.0, 0.0, 0.0);
    let (mut retries, mut fallbacks) = (0u64, 0u64);
    for (i, r) in responses.iter().enumerate() {
        println!(
            "  request {i:>3}: {}  exec {:>8.4} ms  prepare {:>8.4} ms  {}",
            if r.hit { "hit " } else { "miss" },
            r.exec_sim_ms,
            r.prepare_sim_ms,
            outcome_label(r)
        );
        exec_total += r.exec_sim_ms;
        prepare_total += r.prepare_sim_ms;
        wasted_total += r.wasted_sim_ms;
        if let Outcome::Degraded {
            fallback,
            retries: n,
            ..
        } = &r.outcome
        {
            retries += u64::from(*n);
            fallbacks += u64::from(*fallback != FallbackStep::Family(family));
        }
    }
    let s = rep.cache;
    let n = responses.len() as f64;
    // Cold = what every request would cost if nothing were ever cached:
    // each would pay its own preparation on top of the SpMM.
    let cold_prepare: f64 = responses
        .iter()
        .filter(|r| !r.hit)
        .map(|r| r.prepare_sim_ms)
        .sum::<f64>()
        / s.misses.max(1) as f64;
    println!(
        "amortized {:.4} ms/request vs cold {:.4} ms/request (sim)",
        (exec_total + prepare_total) / n,
        exec_total / n + cold_prepare
    );
    println!(
        "cache: {} hits / {} misses ({} evictions, {} rejected) — hit rate {:.1}%, \
         {} plans resident, {} / {} B used",
        s.hits,
        s.misses,
        s.evictions,
        s.rejected,
        s.hit_rate() * 100.0,
        front.cache().len(),
        front.cache().bytes_used(),
        front.cache().shard_budget()
    );
    let c = rep.counters;
    println!(
        "degradation: {} ok / {} degraded / {} failed — rate {:.1}%, {} retries, \
         {} fallbacks, {:.4} ms wasted (sim), {} structures quarantined",
        c.ok,
        c.degraded,
        c.failed,
        c.degraded as f64 / responses.len().max(1) as f64 * 100.0,
        retries,
        fallbacks,
        wasted_total,
        s.quarantined
    );
    // Failed requests are an internal-fault outcome: exit 1, not 2 (the
    // inputs were fine; the device wasn't).
    if c.failed > 0 {
        eprintln!("batch: {} request(s) failed", c.failed);
        Ok(1)
    } else {
        Ok(0)
    }
}

fn cmd_serve_load(flags: &Flags) -> Result<i32, String> {
    let dev = device_for(flags);
    let requests = flag_usize(flags, "requests", 48)?;
    let distinct = flag_usize(flags, "graphs", 4)?.max(1);
    let tenants = flag_usize(flags, "tenants", 4)?.max(1);
    let nodes = flag_usize(flags, "nodes", 1024)?;
    let dim = flag_usize(flags, "dim", 32)?;
    let serve = ServeFlags::parse(flags)?;
    let cfg = serve.front;

    let graphs = serving_graphs(distinct, nodes);
    let trace: Vec<FrontRequest> = (0..requests)
        .map(|i| mix_request(&graphs, i, tenants, dim))
        .collect();

    println!(
        "serve-load: {requests} arrivals from {tenants} tenants over {distinct} graphs \
         ({nodes} vertices, dim {dim}), epochs of {}, queue {}, quota {}/tenant, \
         cohorts ≤ {}, SLO {} ms (sim), cache budget {} B, {:?}",
        cfg.arrivals_per_epoch,
        cfg.queue_depth,
        cfg.tenant_quota,
        cfg.max_cohort,
        cfg.slo_sim_ms,
        serve.cache_bytes,
        dev.kind
    );
    serve.print_faults();
    let front = Front::new(serve.cache_bytes, PlanSpec::hybrid(), 4, cfg);
    let rep = front.run_trace(&trace, &dev);
    for r in &rep.responses {
        let outcome = outcome_label(r);
        match r.cohort {
            Some(c) => println!(
                "  request {:>3} {} epoch {} cohort {c:>3} ({}/{}) {}  \
                 latency {:>8.4} ms  {outcome}",
                r.trace_index,
                r.tenant,
                r.epoch,
                r.cohort_size,
                if r.hit { "hit " } else { "miss" },
                if r.prepare_sim_ms > 0.0 {
                    "charged prepare"
                } else {
                    "shared plan   "
                },
                r.latency_sim_ms
            ),
            None => println!(
                "  request {:>3} {} epoch {}              {outcome}",
                r.trace_index, r.tenant, r.epoch
            ),
        }
    }
    let c = rep.counters;
    println!(
        "admission: {} submitted, {} admitted, {} shed ({} queue-full, {} over-quota) \
         across {} epochs",
        c.submitted,
        c.admitted,
        c.rejected(),
        c.rejected_queue,
        c.rejected_quota,
        c.epochs
    );
    println!(
        "cohorts: {} dispatched, {} requests rode a shared plan (rate {:.1}%), \
         {} quarantined; cache {} hits / {} misses",
        c.cohorts,
        c.cohorted_requests,
        c.cohort_rate() * 100.0,
        c.quarantined_cohorts,
        rep.cache.hits,
        rep.cache.misses
    );
    println!(
        "latency (sim): p50 {:.4} / p99 {:.4} / mean {:.4} / max {:.4} ms over {} served; \
         amortized {:.4} ms/request",
        rep.latency.p50_sim_ms,
        rep.latency.p99_sim_ms,
        rep.latency.mean_sim_ms,
        rep.latency.max_sim_ms,
        rep.latency.served,
        rep.amortized_sim_ms()
    );
    for t in &rep.tenants {
        println!(
            "  tenant {}: {} submitted, {} admitted, {} shed, {} served, {} failed, \
             {} SLO violations, p99 {:.4} ms",
            t.tenant,
            t.submitted,
            t.admitted,
            t.rejected,
            t.served,
            t.failed,
            t.slo_violations,
            t.p99_sim_ms
        );
    }
    println!(
        "outcomes: {} ok / {} degraded / {} failed",
        c.ok, c.degraded, c.failed
    );
    // Like `batch`: post-admission failures are an internal-fault
    // outcome (exit 1); shed requests are the front doing its job.
    if c.failed > 0 {
        eprintln!("serve-load: {} admitted request(s) failed", c.failed);
        Ok(1)
    } else {
        Ok(0)
    }
}

/// A deterministic one-insert-one-delete churn delta for `g`, salted so
/// successive mutations touch different rows. `None` only for edgeless
/// graphs.
fn churn_delta(g: &Csr, salt: u64) -> Option<graph_sparse::DeltaCsr> {
    let n = g.nrows;
    let start = (salt as usize).wrapping_mul(131) % n.max(1);
    // Delete the first edge at or after a salted start row.
    let (dr, dc) = (0..n)
        .map(|i| (start + i) % n)
        .find_map(|r| g.row_cols(r).first().map(|&c| (r as u32, c)))?;
    // Insert into the first absent cell probed from a salted position.
    let mut inserts = Vec::new();
    'probe: for i in 0..n {
        let r = (start + 7 * i + 3) % n;
        let cols = g.row_cols(r);
        for j in 0..n {
            let c = ((salt as usize + 13 * j) % n) as u32;
            if !cols.contains(&c) && (r as u32, c) != (dr, dc) {
                inserts.push((r as u32, c, 1.0f32));
                break 'probe;
            }
        }
    }
    graph_sparse::DeltaCsr::new(n, g.ncols, inserts, vec![(dr, dc)]).ok()
}

fn cmd_serve_churn(flags: &Flags) -> Result<i32, String> {
    Ok(match serve_churn(flags)? {
        Some((rep, resumed_at)) => print_churn_report(&rep, resumed_at),
        None => 0,
    })
}

/// What a `serve-churn` run ended with: the report of the epochs it
/// served and, for a recovered run, the epoch it resumed at; `None` when
/// an injected crash stopped it.
type ChurnRun = Option<(hc_serve::FrontReport, Option<usize>)>;

/// `serve-churn` up to its report: build the evolving trace and serve it
/// through a plain front, or a durable one with `--wal`.
fn serve_churn(flags: &Flags) -> Result<ChurnRun, String> {
    use hc_serve::{FrontEvent, Mutation};
    let dev = device_for(flags);
    let requests = flag_usize(flags, "requests", 48)?;
    let mutations = flag_usize(flags, "mutations", 4)?;
    let distinct = flag_usize(flags, "graphs", 3)?.max(1);
    let tenants = flag_usize(flags, "tenants", 4)?.max(1);
    let nodes = flag_usize(flags, "nodes", 1024)?;
    let dim = flag_usize(flags, "dim", 32)?;
    let serve = ServeFlags::parse(flags)?;
    let cfg = serve.front;

    // Evolving structures: requests always target the *current* version
    // of their graph; every `gap` arrivals one graph takes an edge-churn
    // delta on the control plane.
    let mut current = serving_graphs(distinct, nodes);
    let gap = (requests / (mutations + 1)).max(1);
    let mut events: Vec<FrontEvent> = Vec::new();
    let mut issued = 0usize;
    for i in 0..requests {
        if i > 0 && i % gap == 0 && issued < mutations {
            let gi = issued % distinct;
            let base = Arc::clone(&current[gi]);
            let delta = churn_delta(&base, issued as u64 + 1)
                .ok_or_else(|| format!("graph {gi} has no edges to churn"))?;
            let next = delta
                .apply(&base)
                .map_err(|e| format!("internal churn delta failed to apply: {e}"))?;
            current[gi] = Arc::new(next);
            events.push(FrontEvent::Mutate(Mutation { base, delta }));
            issued += 1;
        }
        events.push(FrontEvent::Serve(mix_request(&current, i, tenants, dim)));
    }

    println!(
        "serve-churn: {requests} arrivals from {tenants} tenants over {distinct} evolving \
         graphs ({nodes} vertices, dim {dim}), {issued} mutations every {gap} arrivals, \
         epochs of {}, cache budget {} B, {:?}",
        cfg.arrivals_per_epoch, serve.cache_bytes, dev.kind
    );
    serve.print_faults();
    let front = Front::new(serve.cache_bytes, PlanSpec::hybrid(), 4, cfg);
    if let Some(wal) = flags.get("wal") {
        return serve_churn_durable(front, &events, &dev, flags, wal);
    }
    Ok(Some((front.run_events(&events, &dev), None)))
}

/// The shared report tail of `serve-churn`: per-mutation patch outcomes,
/// churn/admission/latency summaries, and the exit code. A recovered run
/// passes the epoch it resumed at: its report holds only the epochs from
/// there on, so the latency and outcome lines say so, while the
/// admission counters stay cumulative over the whole trace.
fn print_churn_report(rep: &hc_serve::FrontReport, resumed_at: Option<usize>) -> i32 {
    for m in &rep.mutations {
        let status = if let Err(e) = &m.old_fp {
            format!("rejected: {e}")
        } else if m.patched {
            format!(
                "patched ({:.4} ms sim, dirty windows only) and {}",
                m.patch_sim_ms,
                match m.swap {
                    Some(hc_serve::SwapOutcome::Swapped) => "swapped in",
                    Some(hc_serve::SwapOutcome::Quarantined) => "quarantined",
                    None => "not offered",
                }
            )
        } else {
            "no resident plan to patch (next request prepares fresh)".to_string()
        };
        println!(
            "  mutation @{:>3} epoch {}: {status}",
            m.trace_index, m.epoch
        );
    }
    let c = rep.counters;
    println!(
        "churn: {} mutations, {} plans patched incrementally, {} requests served by a \
         stale plan while patching, {} swaps",
        c.mutations, c.patched_plans, c.stale_served, rep.cache.swaps
    );
    println!(
        "admission: {} submitted, {} admitted, {} shed across {} epochs; cache {} hits / \
         {} misses ({} stale hits)",
        c.submitted,
        c.admitted,
        c.rejected(),
        c.epochs,
        rep.cache.hits,
        rep.cache.misses,
        rep.cache.stale_hits
    );
    let scope = resumed_at.map_or_else(String::new, |e| format!(" over resumed epochs {e}+"));
    println!(
        "latency (sim){scope}: p50 {:.4} / p99 {:.4} / max {:.4} ms over {} served; \
         amortized {:.4} ms/request",
        rep.latency.p50_sim_ms,
        rep.latency.p99_sim_ms,
        rep.latency.max_sim_ms,
        rep.latency.served,
        rep.amortized_sim_ms()
    );
    println!(
        "outcomes{scope}: {} ok / {} degraded / {} failed",
        c.ok, c.degraded, c.failed
    );
    if c.failed > 0 {
        eprintln!("serve-churn: {} admitted request(s) failed", c.failed);
        1
    } else {
        0
    }
}

/// `serve-churn` with durability: mutations are write-ahead logged and
/// the recoverable state snapshots every `--snapshot-every` epochs.
/// `--crash-at K` injects a crash at the K-th crash point (0-based) and
/// leaves the WAL + snapshot on disk; a second invocation with
/// `--recover` rebuilds the front from them (warm plan rebuild, torn-tail
/// rollback, idempotent delta replay) and resumes the identical trace
/// from the first epoch past the last fsync marker.
fn serve_churn_durable(
    front: Front,
    events: &[hc_serve::FrontEvent],
    dev: &DeviceSpec,
    flags: &Flags,
    wal: &str,
) -> Result<ChurnRun, String> {
    use gpu_sim::{CrashConfig, CrashScope};
    use hc_serve::{DurabilityConfig, DurableFront};
    use std::path::PathBuf;

    let snapshot_every = flag_usize(flags, "snapshot-every", 4)?.max(1) as u64;
    let crash_at = flags
        .contains_key("crash-at")
        .then(|| flag(flags, "crash-at", 0u64, "a crash-point index", |_| true))
        .transpose()?;
    let wal_path = PathBuf::from(wal);
    let mut snap = wal_path.as_os_str().to_owned();
    snap.push(".snap");
    let dcfg = DurabilityConfig {
        wal_path,
        snapshot_path: PathBuf::from(snap),
        snapshot_every,
    };

    let mut df = if flags.contains_key("recover") {
        let (df, stats) = DurableFront::recover(front, dcfg, events, dev)
            .map_err(|e| format!("serve-churn: recovery from {wal} failed: {e}"))?;
        println!(
            "recovered from {wal}: resuming at epoch {}; {} plans rebuilt warm \
             ({} full prepares + {} patch replays, {:.4} ms sim), {} deltas \
             replayed ({} duplicates skipped, {} double-applied), {} records \
             rolled back to the last fsync marker, {} torn bytes discarded",
            stats.resume_epoch,
            stats.restored_plans,
            stats.full_prepares,
            stats.patch_replays,
            stats.recovery_sim_ms,
            stats.reapplied_deltas,
            stats.skipped_duplicates,
            stats.double_applied,
            stats.rolled_back_records,
            stats.torn_bytes,
        );
        df
    } else {
        DurableFront::create(front, dcfg)
            .map_err(|e| format!("serve-churn: cannot create WAL at {wal}: {e}"))?
    };

    let resumed_at = flags.contains_key("recover").then(|| df.resume_epoch());
    let _scope = crash_at.map(|k| CrashScope::install(CrashConfig::at(k)));
    let attempt = df
        .run(events, dev)
        .map_err(|e| format!("serve-churn: durability error: {e}"))?;
    match attempt.crash {
        Some(site) => {
            println!(
                "crashed (injected) at {site}, crash point {}: {} responses were \
                 delivered durably before the crash; resume with \
                 `serve-churn --wal {wal} --recover` and the same trace flags",
                crash_at.map_or_else(|| "?".into(), |k| k.to_string()),
                attempt.delivered.len(),
            );
            Ok(None)
        }
        None => {
            let rep = attempt
                .report
                .expect("an uncrashed attempt always carries its report");
            Ok(Some((rep, resumed_at)))
        }
    }
}

fn cmd_loa(flags: &Flags) -> Result<i32, String> {
    let (graph, dim, label) = load_graph(flags)?;
    let dev = device_for(flags);
    let x = DenseMatrix::random_features(graph.nrows, dim, 1);
    let hc = HcSpmm::default();
    let before = hc.spmm(&graph, &x, &dev);
    let loa = Loa {
        vw: flag_usize(flags, "vw", Loa::default().vw)?,
    };
    let (optimized, rep) = loa.optimize(&graph);
    let after = hc.spmm(&optimized, &x, &dev);
    let (cb, tb) = hc.preprocess(&graph, &dev).window_split();
    let (ca, ta) = hc.preprocess(&optimized, &dev).window_split();
    println!("{label}: LOA with VW={}", loa.vw);
    println!(
        "SpMM {:.4} → {:.4} ms ({:+.2}%) | windows CUDA/Tensor {cb}/{tb} → {ca}/{ta} | \
         LOA host cost {:.4} s ({} ops)",
        before.run.time_ms,
        after.run.time_ms,
        (before.run.time_ms - after.run.time_ms) / before.run.time_ms * 100.0,
        rep.seconds,
        rep.ops
    );
    Ok(0)
}

fn cmd_train(flags: &Flags) -> Result<i32, String> {
    let (graph, dim, label) = load_graph(flags)?;
    let dev = device_for(flags);
    let hidden = flag_usize(flags, "hidden", 32)?;
    let epochs = flag_usize(flags, "epochs", 5)?;
    let classes = 22;
    let x = DenseMatrix::random_features(graph.nrows, dim, 1);
    let labels = synthetic_labels(graph.nrows, classes);
    let tr = Trainer { lr: 0.05, epochs };

    let model_kind = flags.get("model").map(|s| s.as_str()).unwrap_or("gcn");
    println!("{label}: training {model_kind} ({epochs} epochs, hidden {hidden})");
    let timings = match model_kind {
        "gin" => {
            let s = gin_propagation(&graph, 0.1);
            let agg = HcAggregator::new(&s, &dev);
            let mut m = Gin::new(dim, hidden, classes, 3);
            tr.train_gin(&mut m, &s, &x, &labels, &agg, &dev)
        }
        "gcn" => {
            let a = graph.gcn_normalize();
            let agg = HcAggregator::new(&a, &dev);
            let mut m = Gcn::new(dim, hidden, classes, 3);
            tr.train_gcn(&mut m, &a, &x, &labels, &agg, &dev)
        }
        other => return Err(format!("unknown model {other:?} (gcn|gin)")),
    };
    for (i, e) in timings.iter().enumerate() {
        println!(
            "  epoch {i}: forward {:.4} ms, backward {:.4} ms, loss {:.4}",
            e.forward_ms, e.backward_ms, e.loss
        );
    }
    let m = mean_timing(&timings);
    println!(
        "mean: forward {:.4} ms, backward {:.4} ms",
        m.forward_ms, m.backward_ms
    );

    // Baseline comparison for context.
    if model_kind == "gcn" {
        let a = graph.gcn_normalize();
        let ge = KernelAggregator::new(baselines::GeSpmm);
        let mut mm = Gcn::new(dim, hidden, classes, 3);
        let t = mean_timing(&tr.train_gcn(&mut mm, &a, &x, &labels, &ge, &dev));
        println!(
            "GE-SpMM backend for reference: forward {:.4} ms, backward {:.4} ms",
            t.forward_ms, t.backward_ms
        );
    }
    Ok(0)
}

fn cmd_sanitize(flags: &Flags) -> Result<i32, String> {
    let dev = device_for(flags);
    let sample = SampleSpec {
        max_windows: flag_usize(flags, "windows", SampleSpec::default().max_windows)?,
    };
    let cfg = SanitizerConfig::default();
    let families: Vec<KernelFamily> = match kernel_family(flags)? {
        None => KernelFamily::ALL.to_vec(),
        Some(f) => vec![f],
    };

    // Either the explicitly requested graph, or the built-in acceptance
    // suite: three structurally different generated graphs plus fixtures.
    let mut graphs: Vec<(String, Csr, usize)> = Vec::new();
    if flags.contains_key("edge-list") || flags.contains_key("dataset") {
        let (g, dim, label) = load_graph(flags)?;
        graphs.push((label, g, dim));
    } else {
        let dim = flag_usize(flags, "dim", 32)?;
        graphs.push((
            "community(1024, 8000)".into(),
            gen::community(1024, 8_000, 32, 0.9, 1),
            dim,
        ));
        graphs.push((
            "molecules(2048, 5000)".into(),
            gen::molecules(2_048, 5_000, 2),
            dim,
        ));
        graphs.push((
            "erdos_renyi(2048, 12000)".into(),
            gen::erdos_renyi(2_048, 12_000, 3),
            dim,
        ));
        match io::read_edge_list_file("fixtures/karate.txt") {
            Ok(g) => graphs.push(("fixtures/karate.txt".into(), g, dim)),
            Err(e) => eprintln!("skipping fixtures/karate.txt: {e}"),
        }
    }

    println!(
        "kernel sanitizer on {:?}: racecheck · memcheck · synccheck · cost-conformance",
        dev.kind
    );
    let mut total_findings = 0usize;
    for (label, graph, dim) in &graphs {
        println!(
            "{label}: {} vertices, {} non-zeros, dim {dim}",
            graph.nrows,
            graph.nnz()
        );
        for &family in &families {
            let r = sanitize_family(family, graph, *dim, &dev, &cfg, sample);
            let verdict = if r.is_clean() {
                "clean".to_string()
            } else {
                format!("{} finding(s)", r.findings.len() + r.suppressed)
            };
            println!(
                "  {:<16} windows {:>4}  ops {:>9}  {verdict}",
                family.name(),
                r.windows_checked,
                r.ops_checked
            );
            for (w, f) in &r.findings {
                println!("    window {w}: {f}");
            }
            if r.suppressed > 0 {
                println!(
                    "    … {} more finding(s) suppressed by the cap",
                    r.suppressed
                );
            }
            total_findings += r.findings.len() + r.suppressed;
        }
    }
    if total_findings > 0 {
        eprintln!("sanitize: {total_findings} finding(s)");
        Ok(1)
    } else {
        println!("sanitize: all checks clean");
        Ok(0)
    }
}

fn cmd_selector() -> i32 {
    print!("{}", bench_free_selector_report());
    0
}

/// Selector pipeline report (duplicated from the bench crate to keep the
/// CLI dependency-light).
fn bench_free_selector_report() -> String {
    let mut out = String::from("§IV-C selector training pipeline\n");
    for kind in DeviceKind::ALL {
        let dev = DeviceSpec::new(kind);
        let (m, acc) = hc_core::selector::train_default(&dev);
        out.push_str(&format!(
            "{:>5}: w1={:+.6} w2={:+.6} b={:+.6} accuracy={:.2}%\n",
            kind.name(),
            m.w1,
            m.w2,
            m.b,
            acc * 100.0
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flags_parse_values_and_booleans() {
        let f = parse_flags(vec![
            "--dataset".into(),
            "rd".into(),
            "--verbose".into(),
            "--scale".into(),
            "128".into(),
        ]);
        assert_eq!(f.get("dataset").unwrap(), "rd");
        assert_eq!(f.get("verbose").unwrap(), "true");
        assert_eq!(flag_usize(&f, "scale", 64), Ok(128));
        assert_eq!(flag_usize(&f, "missing", 7), Ok(7));
        // A count that does not parse is an error naming its flag, never
        // the default.
        assert_eq!(
            flag_usize(&f, "verbose", 7),
            Err("--verbose requires a non-negative integer, got \"true\"".to_string())
        );
    }

    #[test]
    fn dataset_lookup_is_case_insensitive() {
        let mut f = HashMap::new();
        f.insert("dataset".to_string(), "cr".to_string());
        f.insert("scale".to_string(), "1024".to_string());
        let (g, dim, label) = load_graph(&f).unwrap();
        assert!(g.nrows >= 64);
        assert_eq!(dim, 512);
        assert!(label.contains("Cora"));
    }

    #[test]
    fn unknown_dataset_is_an_error() {
        let mut f = HashMap::new();
        f.insert("dataset".to_string(), "zz".to_string());
        assert!(load_graph(&f).is_err());
    }

    #[test]
    fn commands_run_end_to_end() {
        assert_eq!(
            run(vec![
                "spmm".into(),
                "--dataset".into(),
                "cs".into(),
                "--scale".into(),
                "1024".into(),
            ]),
            0
        );
        assert_eq!(
            run(vec![
                "loa".into(),
                "--dataset".into(),
                "pt".into(),
                "--scale".into(),
                "1024".into(),
            ]),
            0
        );
        assert_eq!(
            run(vec![
                "train".into(),
                "--dataset".into(),
                "cr".into(),
                "--scale".into(),
                "1024".into(),
                "--epochs".into(),
                "1".into(),
            ]),
            0
        );
        assert_eq!(
            run(vec![
                "batch".into(),
                "--requests".into(),
                "9".into(),
                "--graphs".into(),
                "3".into(),
                "--nodes".into(),
                "256".into(),
                "--dim".into(),
                "8".into(),
            ]),
            0
        );
        assert_eq!(
            run(vec![
                "batch".into(),
                "--requests".into(),
                "4".into(),
                "--nodes".into(),
                "256".into(),
                "--dim".into(),
                "8".into(),
                "--cache-bytes".into(),
                "0".into(),
                "--loa".into(),
            ]),
            0
        );
        assert_eq!(
            run(vec!["batch".into(), "--kernel".into(), "bogus".into()]),
            2
        );
        assert_eq!(
            run(vec!["batch".into(), "--cache-bytes".into(), "много".into()]),
            2
        );
        assert_eq!(run(vec!["datasets".into()]), 0);
        assert_eq!(
            run(vec![
                "sanitize".into(),
                "--dataset".into(),
                "cr".into(),
                "--scale".into(),
                "1024".into(),
                "--windows".into(),
                "8".into(),
            ]),
            0
        );
        assert_eq!(
            run(vec!["sanitize".into(), "--kernel".into(), "bogus".into()]),
            2
        );
        assert_eq!(
            run(vec![
                "metrics".into(),
                "--dataset".into(),
                "gh".into(),
                "--scale".into(),
                "1024".into(),
            ]),
            0
        );
        assert_eq!(run(vec!["help".into()]), 0);
        assert_eq!(run(vec!["bogus".into()]), 2);
    }

    #[test]
    fn serve_load_runs_sheds_and_rejects_garbage() {
        // Tight quota + queue: the front sheds (typed, exit stays 0 —
        // shedding is the front doing its job, not a failure).
        assert_eq!(
            run(vec![
                "serve-load".into(),
                "--requests".into(),
                "18".into(),
                "--graphs".into(),
                "3".into(),
                "--tenants".into(),
                "2".into(),
                "--nodes".into(),
                "256".into(),
                "--dim".into(),
                "8".into(),
                "--epoch".into(),
                "6".into(),
                "--tenant-quota".into(),
                "2".into(),
                "--queue-depth".into(),
                "4".into(),
                "--max-cohort".into(),
                "2".into(),
                "--workers".into(),
                "2".into(),
            ]),
            0
        );
        // Full fault rate degrades to the CPU reference; still served.
        assert_eq!(
            run(vec![
                "serve-load".into(),
                "--requests".into(),
                "6".into(),
                "--nodes".into(),
                "256".into(),
                "--dim".into(),
                "8".into(),
                "--fault-rate".into(),
                "1.0".into(),
            ]),
            0
        );
        for (flag, bad) in [
            ("--cache-bytes", "много"),
            ("--slo-ms", "-3"),
            ("--fault-rate", "1.5"),
            ("--fault-seed", "nope"),
            ("--max-cohort", "zero"),
            ("--requests", "lots"),
            ("--workers", "-1"),
        ] {
            assert_eq!(
                run(vec!["serve-load".into(), flag.into(), bad.into()]),
                2,
                "{flag} {bad} should be rejected"
            );
        }
    }

    #[test]
    fn serve_churn_runs_and_rejects_garbage() {
        assert_eq!(
            run(vec![
                "serve-churn".into(),
                "--requests".into(),
                "18".into(),
                "--mutations".into(),
                "2".into(),
                "--graphs".into(),
                "2".into(),
                "--nodes".into(),
                "256".into(),
                "--dim".into(),
                "8".into(),
                "--epoch".into(),
                "6".into(),
                "--workers".into(),
                "2".into(),
            ]),
            0
        );
        for (flag, bad) in [
            ("--cache-bytes", "много"),
            ("--slo-ms", "-3"),
            ("--mutations", "many"),
            ("--epoch", "1.5"),
            ("--fault-rate", "2"),
            ("--max-retries", "4294967296"),
        ] {
            assert_eq!(
                run(vec!["serve-churn".into(), flag.into(), bad.into()]),
                2,
                "{flag} {bad} should be rejected"
            );
        }

        // The fault flags reach the durable front: at rate 1.0 every
        // launch faults, so every request degrades to the CPU reference
        // (served, exit 0) and every cohort keeps the per-member bill.
        let wal =
            std::env::temp_dir().join(format!("hc-cli-churn-faults-{}.wal", std::process::id()));
        let wal_s = wal.to_string_lossy().into_owned();
        let snap = format!("{wal_s}.snap");
        let args: Vec<String> = [
            "--requests",
            "12",
            "--mutations",
            "1",
            "--graphs",
            "2",
            "--nodes",
            "256",
            "--dim",
            "8",
            "--epoch",
            "4",
            "--fault-rate",
            "1.0",
            "--wal",
            &wal_s,
        ]
        .map(String::from)
        .to_vec();
        let cleanup = || {
            let _ = std::fs::remove_file(&wal);
            let _ = std::fs::remove_file(&snap);
        };
        cleanup();
        let mut cmd = vec!["serve-churn".to_string()];
        cmd.extend(args.iter().cloned());
        assert_eq!(run(cmd), 0);
        cleanup();
        let (rep, _) = serve_churn(&parse_flags(args))
            .expect("valid flags")
            .expect("no crash is injected");
        cleanup();
        let c = rep.counters;
        assert_eq!((c.ok, c.degraded, c.failed), (0, 12, 0));
        // A member completes after the members ahead of it in its cohort;
        // the first one carries the cohort's preparation.
        let mut queued: HashMap<u64, f64> = HashMap::new();
        for r in &rep.responses {
            assert!(r.wasted_sim_ms > 0.0);
            let q = queued
                .entry(r.cohort.expect("admitted"))
                .or_insert(r.prepare_sim_ms);
            *q += r.exec_sim_ms + r.wasted_sim_ms;
            assert_eq!(r.latency_sim_ms.to_bits(), q.to_bits());
        }
        assert!(queued.len() < 12, "some cohort has several members");
    }

    #[test]
    fn serve_churn_crashes_then_recovers_from_the_wal() {
        let wal = std::env::temp_dir().join(format!("hc-cli-churn-{}.wal", std::process::id()));
        let wal_s = wal.to_string_lossy().into_owned();
        let snap = format!("{wal_s}.snap");
        let _ = std::fs::remove_file(&wal);
        let _ = std::fs::remove_file(&snap);
        let trace_flags = |extra: &[&str]| {
            let mut v: Vec<String> = vec![
                "serve-churn".into(),
                "--requests".into(),
                "18".into(),
                "--mutations".into(),
                "2".into(),
                "--graphs".into(),
                "2".into(),
                "--nodes".into(),
                "256".into(),
                "--dim".into(),
                "8".into(),
                "--epoch".into(),
                "6".into(),
                "--workers".into(),
                "2".into(),
                "--wal".into(),
                wal_s.clone(),
                "--snapshot-every".into(),
                "2".into(),
            ];
            v.extend(extra.iter().map(|s| s.to_string()));
            v
        };
        // Durable run, no crash: completes like the plain run.
        assert_eq!(run(trace_flags(&[])), 0);
        let _ = std::fs::remove_file(&wal);
        let _ = std::fs::remove_file(&snap);
        // Crash mid-trace, then recover and resume from disk.
        assert_eq!(run(trace_flags(&["--crash-at", "2"])), 0);
        assert!(wal.exists(), "the crashed run must leave its WAL behind");
        assert_eq!(run(trace_flags(&["--recover"])), 0);
        let _ = std::fs::remove_file(&wal);
        let _ = std::fs::remove_file(&snap);
        assert_eq!(
            run(trace_flags(&["--crash-at", "zero"])),
            2,
            "--crash-at zero should be rejected"
        );
        // Recovering with no WAL on disk is a typed failure, not a panic.
        assert_eq!(run(trace_flags(&["--recover"])), 2);
        let _ = std::fs::remove_file(&wal);
        let _ = std::fs::remove_file(&snap);
    }

    #[test]
    fn batch_fault_flags_degrade_gracefully_or_reject_garbage() {
        // Rate 1.0: every launch faults, every request degrades to the CPU
        // reference — served, not failed, so the exit code stays 0.
        assert_eq!(
            run(vec![
                "batch".into(),
                "--requests".into(),
                "4".into(),
                "--nodes".into(),
                "256".into(),
                "--dim".into(),
                "8".into(),
                "--fault-rate".into(),
                "1.0".into(),
                "--fault-seed".into(),
                "7".into(),
            ]),
            0
        );
        for bad in ["-0.5", "1.5", "x"] {
            assert_eq!(
                run(vec!["batch".into(), "--fault-rate".into(), bad.into()]),
                2,
                "--fault-rate {bad} should be rejected"
            );
        }
        assert_eq!(
            run(vec!["batch".into(), "--fault-seed".into(), "nope".into()]),
            2
        );
        for (flag, bad) in [
            ("--requests", "lots"),
            ("--graphs", "few"),
            ("--max-retries", "-1"),
            ("--max-retries", "4294967296"),
        ] {
            assert_eq!(
                run(vec!["batch".into(), flag.into(), bad.into()]),
                2,
                "{flag} {bad} should be rejected"
            );
        }
    }

    #[test]
    fn threads_flag_sets_override_and_rejects_garbage() {
        assert_eq!(
            run(vec![
                "metrics".into(),
                "--dataset".into(),
                "cr".into(),
                "--scale".into(),
                "1024".into(),
                "--threads".into(),
                "2".into(),
            ]),
            0
        );
        hc_parallel::set_threads(0); // clear the global override for other tests
        for bad in ["0", "-2", "lots"] {
            assert_eq!(
                run(vec!["datasets".into(), "--threads".into(), bad.into()]),
                2,
                "--threads {bad} should be rejected"
            );
        }
        // Count flags of the non-serving commands reject garbage too,
        // before any graph is loaded.
        for (cmd, flag, bad) in [
            ("train", "--scale", "big"),
            ("sanitize", "--windows", "all"),
        ] {
            assert_eq!(
                run(vec![cmd.into(), flag.into(), bad.into()]),
                2,
                "{cmd} {flag} {bad} should be rejected"
            );
        }
    }
}
