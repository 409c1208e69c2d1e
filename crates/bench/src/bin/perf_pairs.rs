//! Paired-run performance gate: runs the repository benchmark declared in
//! `BENCHMARK.json` on a base tree and a change tree, pair by pair, and
//! judges every end-to-end metric of every workload against its bound.
//!
//! ```text
//! perf_pairs <base-tree> <change-tree> <pairs>
//! ```
//!
//! - The benchmark's definition (command, run length, workloads, metrics
//!   and bounds) is read from the base tree, so a change is judged by the
//!   bounds it was written against.
//! - Each pair runs every workload once on each side for `run_seconds`,
//!   both sides at the pair's seed; the side that runs first flips each
//!   pair. Seeds are drawn from the clock and printed.
//! - Each tree builds and runs its own benchmark from its own directory,
//!   into its own build directory (`CARGO_TARGET_DIR` is cleared for the
//!   runs). The first run of each side includes its build.
//! - A fan-out guard then runs `spmm` on the change tree at `--threads 1`
//!   (its "base") against the benchmark's default thread count (its
//!   "change"), at the same seeds and with the same flip. It is skipped on
//!   a one-core host.
//!
//! Standard output is one table: per workload and end-to-end metric, each
//! side's median and quartiles, the change's wins and ties (ties count for
//! neither side) and a verdict. A metric whose base quartile spread
//! exceeds its bound reads `unresolved`. The last line is the whole
//! summary as one JSON object. Progress goes to standard error.
//!
//! Exit codes: `0` pass. `1` when a change run exits non-zero or prints
//! `"correct": false`; when the change fails a larger share of its
//! attempted ops than the base; when on some metric the change loses every
//! pair (at least 9 of 10 from 10 pairs on) and its median is worse than
//! the base's by more than the metric's bound; or when the default thread
//! count loses the fan-out guard by the same count. `2` on bad inputs, or
//! when the base side fails to build or run.

use std::path::{Path, PathBuf};
use std::process::{exit, Command, Stdio};
use std::time::{SystemTime, UNIX_EPOCH};

use bench::metrics::Json;

const BASE: usize = 0;
const CHANGE: usize = 1;
const SIDES: [&str; 2] = ["base", "change"];
/// The fan-out guard's workload and metric.
const GUARD_WORKLOAD: &str = "spmm";
const GUARD_METRIC: &str = "host_ops_per_s";

/// One end-to-end metric of `BENCHMARK.json`.
#[derive(Debug, Clone)]
struct Metric {
    name: String,
    higher_is_better: bool,
    /// Largest relative worsening of the median that still passes.
    bound: f64,
}

/// The parts of `BENCHMARK.json` that `perf_pairs` runs and judges by.
struct Spec {
    command: Vec<String>,
    run_seconds: f64,
    workloads: Vec<String>,
    metrics: Vec<Metric>,
}

fn parse_spec(text: &str) -> Result<Spec, String> {
    let v = Json::parse(text)?;
    let list = |key: &str| match v.get(key).and_then(Json::as_arr) {
        Some(a) if !a.is_empty() => Ok(a),
        _ => Err(format!("{key:?} must be a non-empty array")),
    };
    let text = |o: Option<&Json>, what: &str| {
        o.and_then(Json::as_str)
            .map(String::from)
            .ok_or(format!("{what} must be a string"))
    };
    let mut metrics = Vec::new();
    for m in list("end_to_end")? {
        let name = text(m.get("name"), "a metric's \"name\"")?;
        let higher_is_better = match m.get("better").and_then(Json::as_str) {
            Some(b @ ("higher" | "lower")) => b == "higher",
            _ => return Err(format!("{name}: \"better\" must be higher or lower")),
        };
        let bound = m.get("bound").and_then(Json::as_f64);
        let Some(bound) = bound.filter(|b| b.is_finite() && *b >= 0.0) else {
            return Err(format!("{name}: \"bound\" must be a number of at least 0"));
        };
        metrics.push(Metric {
            name,
            higher_is_better,
            bound,
        });
    }
    let run_seconds = v.get("run_seconds").and_then(Json::as_f64);
    Ok(Spec {
        command: (list("command")?.iter())
            .map(|c| text(Some(c), "each \"command\" word"))
            .collect::<Result<_, _>>()?,
        run_seconds: run_seconds
            .filter(|s| s.is_finite() && *s > 0.0)
            .ok_or("\"run_seconds\" must be a positive number")?,
        workloads: (list("workloads")?.iter())
            .map(|w| text(w.get("name"), "a workload's \"name\""))
            .collect::<Result<_, _>>()?,
        metrics,
    })
}

/// What one benchmark run reported on its last line.
#[derive(Debug, Clone)]
struct Run {
    attempted: f64,
    failed: f64,
    /// One value per metric of the spec, in the spec's order.
    values: Vec<f64>,
}

/// Check one finished run: it must exit 0 and end with a
/// `"correct": true` line that reports every metric in `metrics`.
fn check_run(exit_ok: bool, stdout: &str, metrics: &[Metric]) -> Result<Run, String> {
    let last = stdout.lines().rev().find(|l| !l.trim().is_empty());
    let v = last.and_then(|l| Json::parse(l).ok());
    let correct = v.as_ref().and_then(|v| v.get("correct")?.as_bool());
    let v = match (v, correct, exit_ok) {
        (_, Some(false), _) => return Err("printed \"correct\": false".into()),
        (_, _, false) => return Err("exited non-zero".into()),
        (Some(v), Some(true), true) => v,
        _ => return Err("did not end with a \"correct\": true result line".into()),
    };
    let number = |key: &str, o: Option<&Json>| {
        o.and_then(Json::as_f64)
            .ok_or(format!("did not report {key}"))
    };
    let values = metrics.iter().map(|m| {
        let metric = v
            .get("metrics")
            .and_then(|ms| ms.get(&m.name)?.get("value"));
        number(&m.name, metric)
    });
    Ok(Run {
        attempted: number("attempted", v.get("attempted"))?,
        failed: number("failed", v.get("failed"))?,
        values: values.collect::<Result<_, _>>()?,
    })
}

/// `[q1, median, q3]`, interpolated linearly between order statistics.
fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(!values.is_empty(), "quartiles of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    [0.25, 0.5, 0.75].map(|p| {
        let x = p * (v.len() - 1) as f64;
        let (lo, hi) = (x.floor() as usize, x.ceil() as usize);
        v[lo] + (v[hi] - v[lo]) * (x - lo as f64)
    })
}

/// Losses out of `pairs` that fail a comparison: every pair, or nine in
/// ten from ten pairs on.
fn losses_to_fail(pairs: usize) -> usize {
    if pairs >= 10 {
        (9 * pairs).div_ceil(10)
    } else {
        pairs
    }
}

/// One metric compared over the pairs.
#[derive(Debug, Clone)]
struct Judged {
    base: [f64; 3],
    change: [f64; 3],
    pairs: usize,
    wins: usize,
    ties: usize,
    /// `ok`, `unresolved` or `regressed` (`ok` or `lost` for the guard).
    verdict: &'static str,
}

impl Judged {
    fn losses(&self) -> usize {
        self.pairs - self.wins - self.ties
    }

    fn lost(&self) -> bool {
        self.losses() >= losses_to_fail(self.pairs)
    }
}

/// Compare `change` with `base` pair by pair (`base[i]` and `change[i]`
/// ran at the same seed).
fn judge(m: &Metric, base: &[f64], change: &[f64]) -> Judged {
    assert_eq!(base.len(), change.len(), "one change run per base run");
    let pairs = || base.iter().zip(change);
    let ties = pairs().filter(|(b, c)| b == c).count();
    let wins = pairs()
        .filter(|(b, c)| b != c && (c > b) == m.higher_is_better)
        .count();
    let (b, c) = (quartiles(base), quartiles(change));
    let worse = if m.higher_is_better {
        b[1] - c[1]
    } else {
        c[1] - b[1]
    };
    let mut j = Judged {
        base: b,
        change: c,
        pairs: base.len(),
        wins,
        ties,
        verdict: "ok",
    };
    if j.lost() && worse / b[1].abs() > m.bound {
        j.verdict = "regressed";
    } else if (b[2] - b[0]) / b[1].abs() > m.bound {
        j.verdict = "unresolved";
    }
    j
}

/// One workload's metrics, judged in the spec's order, and the reasons
/// they fail the gate.
fn judge_workload(
    name: &str,
    metrics: &[Metric],
    runs: &[Vec<Run>; 2],
) -> (Vec<Judged>, Vec<String>) {
    let mut failures = Vec::new();
    let share = runs.each_ref().map(|r| {
        let attempted: f64 = r.iter().map(|r| r.attempted).sum();
        r.iter().map(|r| r.failed).sum::<f64>() / attempted.max(1.0)
    });
    if share[CHANGE] > share[BASE] {
        failures.push(format!(
            "{name}: the change failed {} of its attempted ops, the base {}",
            share[CHANGE], share[BASE]
        ));
    }
    let column =
        |side: usize, m: usize| -> Vec<f64> { runs[side].iter().map(|r| r.values[m]).collect() };
    let judged: Vec<Judged> = (metrics.iter().enumerate())
        .map(|(i, m)| judge(m, &column(BASE, i), &column(CHANGE, i)))
        .collect();
    for (m, j) in metrics.iter().zip(&judged) {
        if j.verdict == "regressed" {
            failures.push(format!(
                "{name} {}: the change lost {} of {} pairs, median {} against {} (bound {})",
                m.name,
                j.losses(),
                j.pairs,
                j.change[1],
                j.base[1],
                m.bound
            ));
        }
    }
    (judged, failures)
}

/// Run the benchmark once in `tree` for `workload` at `seed`, with
/// `extra` arguments appended.
fn run_once(
    spec: &Spec,
    tree: &Path,
    workload: &str,
    seed: u64,
    extra: &[&str],
) -> Result<Run, String> {
    let out = Command::new(&spec.command[0])
        .args(&spec.command[1..])
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &spec.run_seconds.to_string(), "--trace", "0"])
        .args(extra)
        .current_dir(tree)
        .env_remove("CARGO_TARGET_DIR")
        .stdin(Stdio::null())
        .output()
        .map_err(|e| format!("could not start {:?}: {e}", spec.command[0]))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let run = check_run(out.status.success(), &stdout, &spec.metrics);
    if run.is_err() {
        let stderr = String::from_utf8_lossy(&out.stderr);
        let tail: Vec<&str> = stderr.lines().rev().take(8).collect();
        eprintln!("perf_pairs: {} ({}):", tree.display(), out.status);
        tail.iter().rev().for_each(|l| eprintln!("  {l}"));
    }
    run
}

/// Which side runs first in pair `i`.
fn order(i: usize) -> [usize; 2] {
    if i.is_multiple_of(2) {
        [BASE, CHANGE]
    } else {
        [CHANGE, BASE]
    }
}

/// `v` to four significant digits.
fn sig4(v: f64) -> String {
    if v == 0.0 || !v.is_finite() {
        return format!("{v}");
    }
    let decimals = (3 - v.abs().log10().floor() as i32).max(0) as usize;
    format!("{v:.decimals$}")
}

/// The change's median relative to the base's, in percent.
fn delta_pct(j: &Judged) -> Option<f64> {
    (j.base[1] != 0.0).then(|| 100.0 * (j.change[1] - j.base[1]) / j.base[1].abs())
}

/// JSON string literal.
fn esc(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' | '\\' => out.extend(['\\', c]),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out + "\""
}

/// JSON number; `null` where the value is not finite.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn better(m: &Metric) -> &'static str {
    if m.higher_is_better {
        "higher"
    } else {
        "lower"
    }
}

/// One compared metric: workload (or guard), metric, judgement.
type Row<'a> = (String, &'a Metric, Judged);

fn print_table(rows: &[Row]) {
    let q = |q: [f64; 3]| format!("{} [{}, {}]", sig4(q[1]), sig4(q[0]), sig4(q[2]));
    println!(
        "{:<18} {:<15} {:>6} {:>5} {:>28} {:>28} {:>8} {:>5} {:>4}  verdict",
        "workload",
        "metric",
        "better",
        "bound",
        "base median [q1, q3]",
        "change median [q1, q3]",
        "delta",
        "won",
        "tied"
    );
    for (workload, m, j) in rows {
        let delta = delta_pct(j).map_or("n/a".into(), |d| format!("{d:+.1}%"));
        println!(
            "{workload:<18} {:<15} {:>6} {:>4}% {:>28} {:>28} {delta:>8} {:>5} {:>4}  {}",
            m.name,
            better(m),
            100.0 * m.bound,
            q(j.base),
            q(j.change),
            format!("{}/{}", j.wins, j.pairs),
            j.ties,
            j.verdict
        );
    }
}

/// The whole summary as one JSON object.
fn summary_json(seeds: &[u64], rows: &[Row], guard: &str, failures: &[String]) -> String {
    let q = |q: [f64; 3]| format!("[{}, {}, {}]", num(q[0]), num(q[1]), num(q[2]));
    let rows: Vec<String> = (rows.iter())
        .map(|(workload, m, j)| {
            format!(
                "{{\"workload\": {}, \"metric\": {}, \"better\": \"{}\", \"bound\": {}, \
                 \"base_q1_median_q3\": {}, \"change_q1_median_q3\": {}, \"delta_pct\": {}, \
                 \"wins\": {}, \"ties\": {}, \"verdict\": \"{}\"}}",
                esc(workload),
                esc(&m.name),
                better(m),
                num(m.bound),
                q(j.base),
                q(j.change),
                delta_pct(j).map_or("null".into(), num),
                j.wins,
                j.ties,
                j.verdict
            )
        })
        .collect();
    let failures: Vec<String> = failures.iter().map(|f| esc(f)).collect();
    format!(
        "{{\"pass\": {}, \"pairs\": {}, \"seeds\": {seeds:?}, \"fanout_guard\": {}, \
         \"failures\": [{}], \"rows\": [{}]}}",
        failures.is_empty(),
        seeds.len(),
        esc(guard),
        failures.join(", "),
        rows.join(", ")
    )
}

fn bad_input(what: &str) -> ! {
    eprintln!("perf_pairs: {what}");
    exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [base, change, pairs] = args.as_slice() else {
        bad_input("usage: perf_pairs <base-tree> <change-tree> <pairs>");
    };
    let trees = [PathBuf::from(base), PathBuf::from(change)];
    for (tree, side) in trees.iter().zip(SIDES) {
        if !tree.is_dir() {
            bad_input(&format!(
                "the {side} tree {} is not a directory",
                tree.display()
            ));
        }
    }
    let pairs: usize = match pairs.parse() {
        Ok(n) if n > 0 => n,
        _ => bad_input(&format!(
            "<pairs> must be a positive integer, got {pairs:?}"
        )),
    };
    let spec_path = trees[BASE].join("BENCHMARK.json");
    let spec = std::fs::read_to_string(&spec_path)
        .map_err(|e| e.to_string())
        .and_then(|t| parse_spec(&t))
        .unwrap_or_else(|e| bad_input(&format!("{}: {e}", spec_path.display())));
    let seed0 = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(1, |d| d.as_secs() % 1_000_000);
    let seeds: Vec<u64> = (0..pairs as u64).map(|i| seed0 + i).collect();
    println!(
        "perf_pairs: {pairs} pairs of {} s runs, seeds {seeds:?}",
        spec.run_seconds
    );
    // A failed change run ends the comparison: there is nothing to judge.
    let change_failed = |reason: String| -> ! {
        eprintln!("perf_pairs: FAIL: {reason}");
        println!("{}", summary_json(&seeds, &[], "not run", &[reason]));
        exit(1);
    };

    let mut runs: Vec<[Vec<Run>; 2]> = spec.workloads.iter().map(|_| Default::default()).collect();
    for (i, &seed) in seeds.iter().enumerate() {
        for (workload, runs) in spec.workloads.iter().zip(&mut runs) {
            for side in order(i) {
                match run_once(&spec, &trees[side], workload, seed, &[]) {
                    Ok(run) => {
                        let (m, v) = (&spec.metrics[0].name, run.values[0]);
                        let who = SIDES[side];
                        eprintln!(
                            "pair {}/{pairs} {workload} {who} seed {seed}: {m} {v}",
                            i + 1
                        );
                        runs[side].push(run);
                    }
                    Err(e) if side == BASE => {
                        bad_input(&format!("the base failed: {workload} seed {seed}: {e}"))
                    }
                    Err(e) => change_failed(format!("{workload} seed {seed}: the change {e}")),
                }
            }
        }
    }

    let mut rows: Vec<Row> = Vec::new();
    let mut failures = Vec::new();
    for (workload, runs) in spec.workloads.iter().zip(&runs) {
        let (judged, why) = judge_workload(workload, &spec.metrics, runs);
        failures.extend(why);
        rows.extend(
            spec.metrics
                .iter()
                .zip(judged)
                .map(|(m, j)| (workload.clone(), m, j)),
        );
    }

    let guard = match spec.metrics.iter().position(|m| m.name == GUARD_METRIC) {
        None => "skipped: BENCHMARK.json has no host_ops_per_s",
        Some(_) if hc_parallel::sync::thread::available_parallelism() < 2 => "skipped: one core",
        Some(m) => {
            let mut values = [Vec::new(), Vec::new()];
            let sides: [(&str, &[&str]); 2] =
                [("--threads 1", &["--threads", "1"]), ("default", &[])];
            for (i, &seed) in seeds.iter().enumerate() {
                for side in order(i) {
                    let (label, extra) = sides[side];
                    match run_once(&spec, &trees[CHANGE], GUARD_WORKLOAD, seed, extra) {
                        Ok(run) => {
                            let v = run.values[m];
                            eprintln!(
                                "guard {}/{pairs} {label} seed {seed}: {GUARD_METRIC} {v}",
                                i + 1
                            );
                            values[side].push(v);
                        }
                        Err(e) => {
                            change_failed(format!("fan-out guard, {label}, seed {seed}: {e}"))
                        }
                    }
                }
            }
            let mut j = judge(&spec.metrics[m], &values[BASE], &values[CHANGE]);
            j.verdict = if j.lost() { "lost" } else { "ok" };
            if j.lost() {
                failures.push(format!(
                    "fan-out guard: the default thread count lost {} of {pairs} pairs on \
                     {GUARD_METRIC} to --threads 1",
                    j.losses()
                ));
            }
            rows.push((
                format!("{GUARD_WORKLOAD} fan-out guard"),
                &spec.metrics[m],
                j,
            ));
            "ran: base is --threads 1, change is the default thread count"
        }
    };

    print_table(&rows);
    println!("fan-out guard {guard}");
    for f in &failures {
        eprintln!("perf_pairs: FAIL: {f}");
    }
    println!("{}", summary_json(&seeds, &rows, guard, &failures));
    exit(if failures.is_empty() { 0 } else { 1 });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(higher_is_better: bool, bound: f64) -> Metric {
        let name = "m".into();
        Metric {
            name,
            higher_is_better,
            bound,
        }
    }

    fn verdict(m: &Metric, base: &[f64], change: &[f64]) -> &'static str {
        judge(m, base, change).verdict
    }

    #[test]
    fn quartiles_at_odd_and_even_counts() {
        assert_eq!(quartiles(&[5.0, 1.0, 3.0, 2.0, 4.0]), [2.0, 3.0, 4.0]);
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.5, 2.0, 2.5]);
        assert_eq!(quartiles(&[4.0, 1.0, 3.0, 2.0]), [1.75, 2.5, 3.25]);
        assert_eq!(quartiles(&[7.0]), [7.0; 3]);
    }

    #[test]
    fn ties_count_for_neither_side() {
        let (base, change) = ([1.0, 2.0, 3.0, 4.0], [1.0, 1.5, 3.0, 5.0]);
        let j = judge(&metric(false, 0.25), &base, &change);
        assert_eq!((j.wins, j.ties, j.losses()), (1, 2, 1));
        // Identical sim metrics tie in every pair and never fail.
        let same = judge(&metric(false, 0.0), &[2.0; 5], &[2.0; 5]);
        assert_eq!((same.wins, same.ties, same.verdict), (0, 5, "ok"));
    }

    #[test]
    fn direction_decides_who_wins() {
        let (low, high) = ([10.0; 3], [20.0; 3]);
        let up = judge(&metric(true, 0.25), &low, &high);
        assert_eq!((up.wins, up.verdict), (3, "ok"));
        let down = judge(&metric(false, 0.25), &low, &high);
        assert_eq!((down.wins, down.verdict), (0, "regressed"));
        assert_eq!(verdict(&metric(true, 0.25), &high, &low), "regressed");
    }

    #[test]
    fn below_ten_pairs_a_regression_loses_every_pair() {
        let (m, base) = (metric(false, 0.25), [10.0; 5]);
        assert_eq!(verdict(&m, &base, &[14.0; 5]), "regressed");
        // One win, or one tie, and the worse median passes.
        assert_eq!(verdict(&m, &base, &[14.0, 14.0, 9.0, 14.0, 14.0]), "ok");
        assert_eq!(verdict(&m, &base, &[14.0, 10.0, 14.0, 14.0, 14.0]), "ok");
        // Losing every pair within the bound passes; +25% is the bound.
        assert_eq!(verdict(&m, &base, &[12.5; 5]), "ok");
    }

    #[test]
    fn from_ten_pairs_nine_in_ten_losses_suffice() {
        let counts = [1, 5, 9, 10, 11, 20].map(losses_to_fail);
        assert_eq!(counts, [1, 5, 9, 9, 10, 18]);
        let (m, base, mut change) = (metric(false, 0.25), [10.0; 10], [14.0; 10]);
        change[3] = 9.0;
        assert_eq!(verdict(&m, &base, &change), "regressed");
        change[7] = 9.0;
        assert_eq!(verdict(&m, &base, &change), "ok");
    }

    #[test]
    fn a_wide_base_spread_is_unresolved() {
        // Base quartiles 9 and 11 around 10: a spread of 0.2.
        let base = [8.0, 9.0, 10.0, 11.0, 12.0];
        let m = metric(false, 0.1);
        let close = [10.0, 9.0, 10.5, 11.0, 10.0];
        assert_eq!(verdict(&m, &base, &close), "unresolved");
        assert_eq!(verdict(&m, &base, &[30.0; 5]), "regressed");
        assert_eq!(verdict(&metric(false, 0.25), &base, &base), "ok");
    }

    #[test]
    fn a_larger_failed_share_fails_the_workload() {
        let metrics = [metric(true, 0.25)];
        let run = |attempted, failed| Run {
            attempted,
            failed,
            values: vec![5.0],
        };
        let same = [vec![run(100.0, 1.0)], vec![run(200.0, 2.0)]];
        assert!(judge_workload("serve", &metrics, &same).1.is_empty());
        let worse = [vec![run(100.0, 1.0)], vec![run(100.0, 2.0)]];
        assert_eq!(
            judge_workload("serve", &metrics, &worse).1,
            ["serve: the change failed 0.02 of its attempted ops, the base 0.01"]
        );
    }

    #[test]
    fn runs_must_exit_zero_and_print_correct_true() {
        let metrics = [metric(true, 0.25)];
        let line = |correct: bool| {
            format!(
                "table\n{{\"correct\": {correct}, \"attempted\": 40, \"failed\": 0, \
                 \"metrics\": {{\"m\": {{\"value\": 287.5, \"unit\": \"ops/s\"}}}}}}\n"
            )
        };
        let ok = check_run(true, &line(true), &metrics).expect("a correct run");
        assert_eq!(
            (ok.attempted, ok.failed, ok.values),
            (40.0, 0.0, vec![287.5])
        );
        let err = |exit_ok, out: &str, m: &[Metric]| check_run(exit_ok, out, m).unwrap_err();
        assert_eq!(
            err(false, &line(false), &metrics),
            "printed \"correct\": false"
        );
        assert_eq!(
            err(true, &line(false), &metrics),
            "printed \"correct\": false"
        );
        assert_eq!(err(false, &line(true), &metrics), "exited non-zero");
        assert!(err(true, "no json here\n", &metrics).contains("result line"));
        let other = Metric {
            name: "other".into(),
            ..metric(true, 0.1)
        };
        assert_eq!(err(true, &line(true), &[other]), "did not report other");
    }

    #[test]
    fn the_committed_benchmark_definition_parses() {
        let spec = parse_spec(include_str!("../../../../BENCHMARK.json")).expect("BENCHMARK.json");
        assert_eq!(spec.workloads, ["spmm", "serve", "churn", "train"]);
        assert!(spec.workloads.iter().any(|w| w == GUARD_WORKLOAD));
        let ops = spec.metrics.iter().find(|m| m.name == GUARD_METRIC);
        assert!(ops.is_some_and(|m| m.higher_is_better && m.bound > 0.0));
        let with = |command: &str, seconds: &str, better: &str| {
            format!(
                "{{\"command\": {command}, \"run_seconds\": {seconds}, \
                 \"workloads\": [{{\"name\": \"w\"}}], \"end_to_end\": \
                 [{{\"name\": \"m\", \"better\": \"{better}\", \"bound\": 0.1}}]}}"
            )
        };
        assert!(parse_spec(&with("[\"x\"]", "20", "lower")).is_ok());
        for bad in [
            with("[]", "20", "lower"),
            with("[\"x\"]", "0", "lower"),
            with("[\"x\"]", "20", "up"),
        ] {
            assert!(parse_spec(&bad).is_err(), "accepted {bad}");
        }
    }

    #[test]
    fn the_summary_is_one_json_object() {
        let m = metric(false, 0.25);
        let rows = vec![("w".to_string(), &m, judge(&m, &[2.0], &[2.5]))];
        let why = ["a \"quoted\"\nreason".to_string()];
        let v = Json::parse(&summary_json(&[7], &rows, "skipped: one core", &why));
        let v = v.expect("valid JSON");
        assert_eq!(v.get("pass").and_then(Json::as_bool), Some(false));
        let row = &v.get("rows").and_then(Json::as_arr).expect("rows")[0];
        assert_eq!(row.get("delta_pct").and_then(Json::as_f64), Some(25.0));
        assert_eq!(row.get("verdict").and_then(Json::as_str), Some("ok"));
        let failures = v.get("failures").and_then(Json::as_arr).expect("failures");
        assert_eq!(failures[0].as_str(), Some(why[0].as_str()));
    }
}
