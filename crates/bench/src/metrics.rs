//! Machine-readable bench metrics: the `BENCH.json` report emitted by
//! `run_all`, plus the perf-regression gate that compares a fresh report
//! against the committed baseline in CI.
//!
//! The container has no crates.io access (the `serde` shim has no
//! serializer backend), so the JSON here is hand-rolled: a small writer
//! with string escaping and a minimal recursive-descent parser covering
//! exactly the subset the report uses.
//!
//! ## `BENCH.json` schema (version 1)
//!
//! ```json
//! {
//!   "schema": 1,
//!   "scale": 1024,
//!   "threads": 8,
//!   "experiments": [
//!     {"name": "fig10_spmm", "wall_ms": 123.4, "cpu_ms": 119.7}
//!   ],
//!   "kernels": [
//!     {"family": "hybrid", "dataset": "CR", "serial_ms": 80.1,
//!      "parallel_ms": 11.9, "speedup": 6.73, "bit_identical": true,
//!      "serial_fallback": false}
//!   ]
//! }
//! ```
//!
//! The reader ignores keys it does not know, so reports that still carry
//! the per-experiment counter blocks older runs wrote (the committed
//! baseline among them) parse unchanged. Those counters are simulated and
//! deterministic; the `extensions` tests assert on them directly. The
//! per-kernel `serial_fallback` flag is optional too.
//!
//! `experiments` records wall-clock and process CPU time per experiment;
//! `kernels` records per-kernel-family SpMM timings against a forced
//! single-thread run of the same kernel, with a bit-identity check of the
//! two outputs. The CI gate compares `cpu_ms` when both reports carry it
//! (CPU time is immune to scheduler preemption and hypervisor steal, which
//! dominate wall-clock variance on shared runners) and falls back to
//! `wall_ms` otherwise; `cpu_ms` is 0 when the platform cannot measure it.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

use gpu_sim::DeviceSpec;
use graph_sparse::{DatasetId, DenseMatrix};
use hc_core::{CudaSpmm, HcSpmm, SpmmKernel, StraightforwardHybrid, TensorSpmm};

use crate::harness::DatasetCache;

/// Report schema version written to (and required from) `BENCH.json`.
pub const SCHEMA_VERSION: u64 = 1;

/// Timing of one experiment in a `run_all` invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentTiming {
    /// Experiment name (stable across runs; the gate joins on it).
    pub name: String,
    /// Wall-clock milliseconds.
    pub wall_ms: f64,
    /// Process CPU milliseconds (user + system, all threads); 0 when the
    /// platform cannot measure it.
    pub cpu_ms: f64,
}

/// One kernel family timed at the configured thread count and serially.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelSpeedup {
    /// Kernel family (`straightforward` / `cuda` / `tensor` / `hybrid`).
    pub family: String,
    /// Dataset code the measurement ran on.
    pub dataset: String,
    /// Wall-clock of the forced single-thread run, ms.
    pub serial_ms: f64,
    /// Wall-clock at the configured thread count, ms.
    pub parallel_ms: f64,
    /// `serial_ms / parallel_ms`, pinned to 1.0 when the pool never
    /// engaged (see [`serial_fallback`](KernelSpeedup::serial_fallback)).
    pub speedup: f64,
    /// Whether the two runs produced bit-identical output matrices.
    pub bit_identical: bool,
    /// True when the calibrated serial fast path handled every region of
    /// the "parallel" run (sub-threshold work or a single-core host). Both
    /// sides then execute identical code, the measured ratio is pure
    /// scheduler noise, and `speedup` is pinned to 1.0.
    pub serial_fallback: bool,
}

/// The full machine-readable report.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchReport {
    /// Dataset scale divisor the run used (`HC_SCALE`).
    pub scale: usize,
    /// Worker-thread count the run used.
    pub threads: usize,
    /// Per-experiment wall clocks, in run order.
    pub experiments: Vec<ExperimentTiming>,
    /// Kernel-family speedup measurements.
    pub kernels: Vec<KernelSpeedup>,
}

impl BenchReport {
    /// Empty report for a run at the given configuration.
    pub fn new(scale: usize, threads: usize) -> Self {
        BenchReport {
            scale,
            threads,
            experiments: Vec::new(),
            kernels: Vec::new(),
        }
    }

    /// Record one experiment's timings.
    pub fn push_experiment(&mut self, name: &str, wall_ms: f64, cpu_ms: f64) {
        self.experiments.push(ExperimentTiming {
            name: name.to_string(),
            wall_ms,
            cpu_ms,
        });
    }

    /// Serialize to pretty-printed JSON (stable key order).
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        let _ = writeln!(s, "  \"schema\": {SCHEMA_VERSION},");
        let _ = writeln!(s, "  \"scale\": {},", self.scale);
        let _ = writeln!(s, "  \"threads\": {},", self.threads);
        s.push_str("  \"experiments\": [\n");
        for (i, e) in self.experiments.iter().enumerate() {
            let comma = if i + 1 < self.experiments.len() {
                ","
            } else {
                ""
            };
            let _ = writeln!(
                s,
                "    {{\"name\": {}, \"wall_ms\": {}, \"cpu_ms\": {}}}{comma}",
                esc(&e.name),
                num(e.wall_ms),
                num(e.cpu_ms)
            );
        }
        s.push_str("  ],\n  \"kernels\": [\n");
        for (i, k) in self.kernels.iter().enumerate() {
            let comma = if i + 1 < self.kernels.len() { "," } else { "" };
            let _ = writeln!(
                s,
                "    {{\"family\": {}, \"dataset\": {}, \"serial_ms\": {}, \
                 \"parallel_ms\": {}, \"speedup\": {}, \"bit_identical\": {}, \
                 \"serial_fallback\": {}}}{comma}",
                esc(&k.family),
                esc(&k.dataset),
                num(k.serial_ms),
                num(k.parallel_ms),
                num(k.speedup),
                k.bit_identical,
                k.serial_fallback
            );
        }
        s.push_str("  ]\n}\n");
        s
    }

    /// Parse a report back from JSON, checking the schema version.
    pub fn from_json(text: &str) -> Result<BenchReport, String> {
        let v = Json::parse(text)?;
        let schema = v
            .get("schema")
            .and_then(Json::as_f64)
            .ok_or("missing \"schema\"")? as u64;
        if schema != SCHEMA_VERSION {
            return Err(format!(
                "unsupported schema version {schema} (expected {SCHEMA_VERSION})"
            ));
        }
        let field = |key: &str| v.get(key).ok_or(format!("missing {key:?}"));
        let mut report = BenchReport::new(
            field("scale")?.as_f64().ok_or("scale not a number")? as usize,
            field("threads")?.as_f64().ok_or("threads not a number")? as usize,
        );
        for e in field("experiments")?
            .as_arr()
            .ok_or("experiments not an array")?
        {
            report.experiments.push(ExperimentTiming {
                name: e
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or("experiment missing name")?
                    .to_string(),
                wall_ms: e
                    .get("wall_ms")
                    .and_then(Json::as_f64)
                    .ok_or("experiment missing wall_ms")?,
                // Absent in reports from platforms without CPU accounting.
                cpu_ms: e.get("cpu_ms").and_then(Json::as_f64).unwrap_or(0.0),
            });
        }
        for k in field("kernels")?.as_arr().ok_or("kernels not an array")? {
            let f = |key: &str| k.get(key).and_then(Json::as_f64);
            report.kernels.push(KernelSpeedup {
                family: k
                    .get("family")
                    .and_then(Json::as_str)
                    .ok_or("kernel missing family")?
                    .to_string(),
                dataset: k
                    .get("dataset")
                    .and_then(Json::as_str)
                    .ok_or("kernel missing dataset")?
                    .to_string(),
                serial_ms: f("serial_ms").ok_or("kernel missing serial_ms")?,
                parallel_ms: f("parallel_ms").ok_or("kernel missing parallel_ms")?,
                speedup: f("speedup").ok_or("kernel missing speedup")?,
                bit_identical: k
                    .get("bit_identical")
                    .and_then(Json::as_bool)
                    .ok_or("kernel missing bit_identical")?,
                // Absent in reports written before the serial fast path.
                serial_fallback: k
                    .get("serial_fallback")
                    .and_then(Json::as_bool)
                    .unwrap_or(false),
            });
        }
        Ok(report)
    }
}

/// Cumulative process CPU time in milliseconds (user + system, across all
/// threads, including exited-and-joined workers), or `None` when the
/// platform cannot measure it. CPU time is the gate's preferred metric: it
/// does not advance while the process is preempted or the VM is stolen
/// from, so it stays stable on oversubscribed CI runners where wall clock
/// swings by 2x between identical runs.
///
/// Measured with `clock_gettime(CLOCK_PROCESS_CPUTIME_ID)` — nanosecond
/// resolution, so sub-10 ms experiments report real CPU time instead of
/// the zeros the old `/proc/self/stat` USER_HZ tick produced (which made
/// the gate silently skip them). Falls back to `/proc` parsing if the
/// syscall is unavailable.
pub fn cpu_time_ms() -> Option<f64> {
    #[cfg(unix)]
    {
        #[repr(C)]
        struct Timespec {
            tv_sec: i64,
            tv_nsec: i64,
        }
        extern "C" {
            fn clock_gettime(clockid: i32, tp: *mut Timespec) -> i32;
        }
        // POSIX: the CPU-time clock of the calling process.
        const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
        let mut ts = Timespec {
            tv_sec: 0,
            tv_nsec: 0,
        };
        // SAFETY: `ts` is a valid writable timespec and the clock id is a
        // POSIX constant; the call writes `ts` and returns a status.
        if unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) } == 0 {
            return Some(ts.tv_sec as f64 * 1e3 + ts.tv_nsec as f64 * 1e-6);
        }
    }
    cpu_time_ms_proc()
}

/// USER_HZ-resolution fallback: utime+stime from `/proc/self/stat`
/// (10 ms ticks).
fn cpu_time_ms_proc() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // comm (field 2) may contain spaces or parens; real fields resume
    // after the last ')'. utime/stime are fields 14/15 of the line, i.e.
    // the 12th/13th after comm.
    let rest = stat.rsplit_once(')')?.1;
    let mut fields = rest.split_whitespace();
    let utime: f64 = fields.nth(11)?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    // /proc clock ticks are USER_HZ, fixed at 100 on Linux: 10 ms each.
    Some((utime + stime) * 10.0)
}

/// Output path for the report: `HC_BENCH_JSON` or `BENCH.json`.
pub fn default_path() -> PathBuf {
    std::env::var_os("HC_BENCH_JSON")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("BENCH.json"))
}

/// Time the four kernel families at the configured thread count and at a
/// forced single thread, on two structurally different datasets. The
/// single-thread rerun also serves as the determinism check: both outputs
/// must be bit-identical.
///
/// Each side is best-of-3 — the minimum is the least-preempted run, which
/// is what a speedup ratio should compare. When the calibrated serial
/// fast path handled every region of the "parallel" run (sub-threshold
/// work, or a single-core host), both sides executed identical code; the
/// measurement is flagged `serial_fallback` and the speedup pinned to 1.0
/// instead of reporting scheduler noise as a parallel regression.
pub fn measure_kernel_speedups(cache: &mut DatasetCache, dev: &DeviceSpec) -> Vec<KernelSpeedup> {
    let kernels: Vec<(&str, Box<dyn SpmmKernel>)> = vec![
        (
            "straightforward",
            Box::new(StraightforwardHybrid::default()),
        ),
        ("cuda", Box::new(CudaSpmm::optimized())),
        ("tensor", Box::new(TensorSpmm::optimized())),
        ("hybrid", Box::new(HcSpmm::default())),
    ];
    const REPEAT: usize = 3;
    let saved = hc_parallel::thread_override();
    let mut out = Vec::new();
    for id in [DatasetId::CR, DatasetId::PM] {
        let a = cache.get(id).adj.clone();
        let dim = cache.get(id).spec.dim.min(512);
        let x = DenseMatrix::random_features(a.nrows, dim, id as u64);
        for (family, kern) in &kernels {
            hc_parallel::reset_pool_stats();
            let mut parallel_ms = f64::INFINITY;
            let mut z_par = DenseMatrix::zeros(0, 0);
            for _ in 0..REPEAT {
                let t0 = Instant::now();
                z_par = kern.spmm(&a, &x, dev).z;
                parallel_ms = parallel_ms.min(t0.elapsed().as_secs_f64() * 1e3);
            }
            let engaged = hc_parallel::pool_stats().parallel_regions > 0;

            hc_parallel::set_threads(1);
            let mut serial_ms = f64::INFINITY;
            let mut z_ser = DenseMatrix::zeros(0, 0);
            for _ in 0..REPEAT {
                let t0 = Instant::now();
                z_ser = kern.spmm(&a, &x, dev).z;
                serial_ms = serial_ms.min(t0.elapsed().as_secs_f64() * 1e3);
            }
            hc_parallel::set_threads(saved);

            out.push(KernelSpeedup {
                family: family.to_string(),
                dataset: id.code().to_string(),
                serial_ms,
                parallel_ms,
                speedup: if engaged {
                    serial_ms / parallel_ms.max(1e-9)
                } else {
                    1.0
                },
                bit_identical: z_par == z_ser,
                serial_fallback: !engaged,
            });
        }
    }
    out
}

/// One experiment the gate flags as regressed.
#[derive(Debug, Clone, PartialEq)]
pub struct Regression {
    /// Experiment name.
    pub name: String,
    /// Baseline time, ms (in the compared metric).
    pub base_ms: f64,
    /// Current time, ms (in the compared metric).
    pub cur_ms: f64,
    /// `cur_ms / base_ms`.
    pub ratio: f64,
    /// Which metric was compared: `"cpu"` or `"wall"`.
    pub metric: &'static str,
}

/// Result of gating a current report against a baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct GateOutcome {
    /// Experiments present in both reports and above the noise floor.
    pub compared: usize,
    /// Experiments slower than `baseline · (1 + threshold)`.
    pub regressions: Vec<Regression>,
    /// Baseline experiments absent from the current report.
    pub missing: Vec<String>,
}

impl GateOutcome {
    /// True when the gate should fail the build.
    pub fn failed(&self) -> bool {
        !self.regressions.is_empty() || !self.missing.is_empty()
    }
}

/// Compare per-experiment timings. For each experiment the gate uses CPU
/// time when both reports measured it (scheduler- and steal-immune) and
/// wall clock otherwise. An experiment regresses when its current time
/// exceeds the baseline by more than `threshold` (0.25 = +25 %) AND by
/// more than `min_ms` absolute — the relative test catches slowdowns, the
/// absolute test absorbs the 10 ms CPU-tick quantization on small
/// experiments. Experiments where both sides sit under `min_ms` are
/// skipped entirely: sub-floor timings measure the scheduler, not the
/// code.
pub fn gate(base: &BenchReport, cur: &BenchReport, threshold: f64, min_ms: f64) -> GateOutcome {
    let mut outcome = GateOutcome {
        compared: 0,
        regressions: Vec::new(),
        missing: Vec::new(),
    };
    for b in &base.experiments {
        let Some(c) = cur.experiments.iter().find(|c| c.name == b.name) else {
            outcome.missing.push(b.name.clone());
            continue;
        };
        let (base_ms, cur_ms, metric) = if b.cpu_ms > 0.0 && c.cpu_ms > 0.0 {
            (b.cpu_ms, c.cpu_ms, "cpu")
        } else {
            (b.wall_ms, c.wall_ms, "wall")
        };
        if base_ms.max(cur_ms) < min_ms {
            continue;
        }
        outcome.compared += 1;
        if cur_ms > base_ms * (1.0 + threshold) && cur_ms - base_ms > min_ms {
            outcome.regressions.push(Regression {
                name: b.name.clone(),
                base_ms,
                cur_ms,
                ratio: cur_ms / base_ms.max(1e-9),
                metric,
            });
        }
    }
    outcome
}

fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Format a float so it round-trips as JSON (always with a decimal point
/// or exponent so the reader can tell it is a number).
fn num(v: f64) -> String {
    if !v.is_finite() {
        // JSON has no Infinity/NaN; clamp to a sentinel the gate treats as
        // "huge" rather than producing an unparseable document.
        return "1e308".to_string();
    }
    let s = format!("{v}");
    if s.contains('.') || s.contains('e') || s.contains('E') {
        s
    } else {
        format!("{s}.0")
    }
}

/// Minimal JSON value for the report parser.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (parsed as f64).
    Num(f64),
    /// String (escape sequences decoded).
    Str(String),
    /// Array.
    Arr(Vec<Json>),
    /// Object, insertion-ordered.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parse a complete JSON document (trailing whitespace only).
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            b: text.as_bytes(),
            i: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.i != p.b.len() {
            return Err(format!("trailing garbage at byte {}", p.i));
        }
        Ok(v)
    }

    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Number accessor.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// String accessor.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Bool accessor.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Array accessor.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }
}

struct Parser<'a> {
    b: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self.i < self.b.len() && self.b[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.b.get(self.i).copied()
    }

    fn eat(&mut self, c: u8) -> Result<(), String> {
        if self.peek() == Some(c) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", c as char, self.i))
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.b[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(v)
        } else {
            Err(format!("invalid literal at byte {}", self.i))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.i)),
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.eat(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.i += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            fields.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b'}') => {
                    self.i += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.i)),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.i += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b']') => {
                    self.i += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.i)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.i += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.i += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'u') => {
                            let hex = self
                                .b
                                .get(self.i + 1..self.i + 5)
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                                16,
                            )
                            .map_err(|e| e.to_string())?;
                            out.push(char::from_u32(code).ok_or("invalid \\u escape")?);
                            self.i += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.i)),
                    }
                    self.i += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 character (the input is a &str, so
                    // boundaries are valid).
                    let rest = &self.b[self.i..];
                    let ch_len = std::str::from_utf8(rest)
                        .map_err(|e| e.to_string())?
                        .chars()
                        .next()
                        .map(char::len_utf8)
                        .unwrap_or(1);
                    out.push_str(std::str::from_utf8(&rest[..ch_len]).unwrap());
                    self.i += ch_len;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.i;
        while let Some(c) = self.peek() {
            if c.is_ascii_digit() || matches!(c, b'-' | b'+' | b'.' | b'e' | b'E') {
                self.i += 1;
            } else {
                break;
            }
        }
        std::str::from_utf8(&self.b[start..self.i])
            .map_err(|e| e.to_string())?
            .parse::<f64>()
            .map(Json::Num)
            .map_err(|e| format!("bad number at byte {start}: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> BenchReport {
        let mut r = BenchReport::new(1024, 8);
        r.push_experiment("fig10_spmm", 123.456, 120.0);
        r.push_experiment("table01", 4.2, 4.0);
        r.kernels.push(KernelSpeedup {
            family: "hybrid".into(),
            dataset: "CR".into(),
            serial_ms: 80.0,
            parallel_ms: 10.0,
            speedup: 8.0,
            bit_identical: true,
            serial_fallback: false,
        });
        r
    }

    #[test]
    fn report_roundtrips_through_json() {
        let r = sample();
        let parsed = BenchReport::from_json(&r.to_json()).unwrap();
        assert_eq!(parsed, r);
    }

    #[test]
    fn committed_baseline_still_parses() {
        // The baseline carries seven counter blocks this reader no longer
        // models; they must read as unknown keys, not as a parse error
        // (which `bench_gate` would report as "NO BASELINE", exit 3).
        let base = BenchReport::from_json(include_str!("../../../BENCH_baseline.json")).unwrap();
        assert_eq!(base.experiments.len(), 39);
        assert_eq!(base.kernels.len(), 8);
    }

    #[test]
    fn kernel_serial_fallback_flag_defaults_to_false_in_old_reports() {
        // A baseline written before the flag existed must parse with the
        // flag off rather than erroring.
        let old = "{\"schema\": 1, \"scale\": 1, \"threads\": 1, \
                    \"experiments\": [], \"kernels\": [\
                    {\"family\": \"cuda\", \"dataset\": \"CR\", \
                     \"serial_ms\": 2.0, \"parallel_ms\": 1.0, \
                     \"speedup\": 2.0, \"bit_identical\": true}]}";
        let r = BenchReport::from_json(old).unwrap();
        assert!(!r.kernels[0].serial_fallback);
    }

    #[test]
    fn parser_rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "{\"a\": }",
            "[1, 2",
            "{\"a\": 1} trailing",
            "{\"schema\": 99}",
        ] {
            assert!(BenchReport::from_json(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn string_escapes_roundtrip() {
        let mut r = BenchReport::new(1, 1);
        r.push_experiment("weird \"name\"\\with\nescapes\tand unicode µ", 50.0, 50.0);
        let parsed = BenchReport::from_json(&r.to_json()).unwrap();
        assert_eq!(parsed.experiments[0].name, r.experiments[0].name);
    }

    #[test]
    fn gate_flags_slowdowns_over_threshold() {
        let base = sample();
        let mut cur = sample();
        cur.experiments[0].wall_ms = 123.456 * 1.5; // +50 %
        cur.experiments[0].cpu_ms = 120.0 * 1.5;
        let out = gate(&base, &cur, 0.25, 1.0);
        assert!(out.failed());
        assert_eq!(out.regressions.len(), 1);
        assert_eq!(out.regressions[0].name, "fig10_spmm");
        assert_eq!(out.regressions[0].metric, "cpu");
        assert!((out.regressions[0].ratio - 1.5).abs() < 1e-9);
    }

    #[test]
    fn gate_passes_within_threshold_and_under_noise_floor() {
        let base = sample();
        let mut cur = sample();
        cur.experiments[0].wall_ms *= 1.2; // +20 % < 25 %
        cur.experiments[0].cpu_ms *= 1.2;
        cur.experiments[1].wall_ms *= 10.0; // huge ratio but under the floor
        cur.experiments[1].cpu_ms *= 10.0;
        let out = gate(&base, &cur, 0.25, 100.0);
        assert!(!out.failed(), "{:?}", out.regressions);
        assert_eq!(out.compared, 1); // table01 skipped by the floor
    }

    #[test]
    fn gate_prefers_cpu_time_over_noisy_wall_clock() {
        // Wall clock doubled (preempted run) but CPU time is unchanged:
        // the code did the same work, so the gate must pass.
        let base = sample();
        let mut cur = sample();
        cur.experiments[0].wall_ms *= 2.0;
        let out = gate(&base, &cur, 0.25, 1.0);
        assert!(!out.failed(), "{:?}", out.regressions);
    }

    #[test]
    fn gate_falls_back_to_wall_when_cpu_unmeasured() {
        let mut base = sample();
        let mut cur = sample();
        base.experiments[0].cpu_ms = 0.0;
        cur.experiments[0].cpu_ms = 0.0;
        cur.experiments[0].wall_ms *= 2.0;
        let out = gate(&base, &cur, 0.25, 1.0);
        assert!(out.failed());
        assert_eq!(out.regressions[0].metric, "wall");
    }

    #[test]
    fn gate_requires_absolute_delta_past_min_ms() {
        // One CPU tick of quantization (10 -> 20 ms) is a 2x ratio but
        // only a 10 ms delta; with min_ms = 10 it must not flag.
        let mut base = sample();
        let mut cur = sample();
        base.experiments[0].cpu_ms = 10.0;
        cur.experiments[0].cpu_ms = 20.0;
        let out = gate(&base, &cur, 0.25, 10.0);
        assert!(!out.failed(), "{:?}", out.regressions);
    }

    #[test]
    fn gate_flags_missing_experiments() {
        let base = sample();
        let mut cur = sample();
        cur.experiments.remove(1);
        let out = gate(&base, &cur, 0.25, 1.0);
        assert!(out.failed());
        assert_eq!(out.missing, vec!["table01".to_string()]);
    }
}
