//! CI perf-regression gate: compares a fresh `BENCH.json` against the
//! committed baseline and exits non-zero when any experiment slowed down by
//! more than the threshold (or disappeared from the run).
//!
//! ```text
//! bench_gate --baseline BENCH_baseline.json --current BENCH.json \
//!            [--threshold 0.25] [--min-ms 10]
//! ```
//!
//! Each experiment is compared on process CPU time when both reports
//! measured it (CPU time does not advance while the process is preempted,
//! so it is stable on oversubscribed runners where wall clock swings 2x
//! between identical runs), falling back to wall clock otherwise.
//!
//! `--threshold` is the allowed fractional slowdown (0.25 = +25 %);
//! `--min-ms` is the noise floor — experiments where both sides run under
//! it are skipped, and a regression must also exceed it as an absolute
//! delta (absorbs the 10 ms CPU-tick quantization). In CI, applying the
//! `perf-override` label to a PR skips this gate for intentional
//! slowdowns (see the workflow).
//!
//! `--min-kernel-speedup-floor F` fails when any kernel family in the
//! current report times slower multithreaded than serial (`speedup < F`)
//! without its `serial_fallback` flag set — i.e. the pool actually fanned
//! out and made things worse. Launches the calibrated serial fast path
//! absorbed are exempt (both sides ran identical code, so their ratio is
//! scheduler noise). This is a host timing, so the `perf-override` label
//! escape applies.
//!
//! Exit codes: `0` pass, `1` regression or assertion failure, `2` bad
//! invocation or unreadable/unparsable *current* report, `3` missing or
//! unparsable *baseline* (printed as a one-line `NO BASELINE:` reason) —
//! so a fresh branch with no committed baseline is distinguishable from
//! a real failure.

use bench::metrics::{gate, BenchReport};

fn usage() -> ! {
    eprintln!(
        "usage: bench_gate --baseline <path> --current <path> \
         [--threshold 0.25] [--min-ms 10] [--min-kernel-speedup-floor F]"
    );
    std::process::exit(2);
}

/// Exit code for a missing or unparsable *baseline*: distinct from both
/// "regression found" (1) and "bad invocation / bad current report" (2),
/// so CI can tell "no baseline to compare against" apart from a genuine
/// failure and surface it as its own step instead of a false red.
const EXIT_NO_BASELINE: i32 = 3;

fn load_baseline(path: &str) -> BenchReport {
    let text = std::fs::read_to_string(path).unwrap_or_else(|err| {
        eprintln!("NO BASELINE: cannot read baseline {path}: {err}");
        std::process::exit(EXIT_NO_BASELINE);
    });
    BenchReport::from_json(&text).unwrap_or_else(|err| {
        eprintln!("NO BASELINE: cannot parse baseline {path}: {err}");
        std::process::exit(EXIT_NO_BASELINE);
    })
}

fn load_current(path: &str) -> BenchReport {
    let text = std::fs::read_to_string(path).unwrap_or_else(|err| {
        eprintln!("ERROR: cannot read {path}: {err}");
        std::process::exit(2);
    });
    BenchReport::from_json(&text).unwrap_or_else(|err| {
        eprintln!("ERROR: cannot parse {path}: {err}");
        std::process::exit(2);
    })
}

fn main() {
    let mut baseline = None;
    let mut current = None;
    let mut threshold = 0.25f64;
    let mut min_ms = 10.0f64;
    let mut speedup_floor: Option<f64> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = || args.next().unwrap_or_else(|| usage());
        match arg.as_str() {
            "--baseline" => baseline = Some(value()),
            "--current" => current = Some(value()),
            "--threshold" => threshold = value().parse().unwrap_or_else(|_| usage()),
            "--min-ms" => min_ms = value().parse().unwrap_or_else(|_| usage()),
            "--min-kernel-speedup-floor" => {
                speedup_floor = Some(value().parse().unwrap_or_else(|_| usage()))
            }
            _ => usage(),
        }
    }
    let (Some(baseline), Some(current)) = (baseline, current) else {
        usage();
    };

    let base = load_baseline(&baseline);
    let cur = load_current(&current);
    if base.scale != cur.scale {
        eprintln!(
            "WARNING: scale mismatch (baseline 1/{}, current 1/{}) — \
             timings are not comparable across scales",
            base.scale, cur.scale
        );
    }

    if let Some(floor) = speedup_floor {
        let mut below = 0usize;
        for k in &cur.kernels {
            let status = if k.serial_fallback {
                "serial fast path"
            } else if k.speedup < floor {
                below += 1;
                "BELOW FLOOR"
            } else {
                "ok"
            };
            println!(
                "kernel speedup: {:>15} on {}: {:.2}x (floor {floor}) — {status}",
                k.family, k.dataset, k.speedup
            );
        }
        if below > 0 {
            eprintln!(
                "FAIL: {below} kernel familie(s) ran slower multithreaded than \
                 serial with the pool engaged — parallel overhead is eating the win"
            );
            eprintln!("(intentional? apply the `perf-override` PR label to skip this gate)");
            std::process::exit(1);
        }
    }

    let out = gate(&base, &cur, threshold, min_ms);
    println!(
        "perf gate: {} experiments compared (threshold +{:.0}%, noise floor {min_ms} ms)",
        out.compared,
        threshold * 100.0
    );
    for m in &out.missing {
        println!("  MISSING    {m}: in baseline but absent from current run");
    }
    for r in &out.regressions {
        println!(
            "  REGRESSED  {}: {:.1} ms -> {:.1} ms ({:.2}x, {} time)",
            r.name, r.base_ms, r.cur_ms, r.ratio, r.metric
        );
    }
    if out.failed() {
        println!(
            "FAIL: perf gate found {} regression(s), {} missing experiment(s)",
            out.regressions.len(),
            out.missing.len()
        );
        println!("(intentional? apply the `perf-override` PR label to skip this gate)");
        std::process::exit(1);
    }
    println!("PASS: no experiment regressed past the threshold");
}
