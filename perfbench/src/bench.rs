//! The workload interface and the two run modes: the untraced run that
//! measures the end-to-end metrics, and the traced run that measures the
//! per-layer metrics.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::host::{self, Digest};
use crate::trace::{SpanTotals, Tracer};

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Simulated device ms a pass charged, split by what it paid for.
#[derive(Debug, Clone, Copy, Default)]
pub struct SimSplit {
    pub prepare: f64,
    pub patch: f64,
    pub exec: f64,
    pub wasted: f64,
}

impl SimSplit {
    pub fn total(&self) -> f64 {
        self.prepare + self.patch + self.exec + self.wasted
    }
}

/// What one pass over a workload's fixed op sequence produced. Every
/// field except `calls_ms` is a pure function of the seed, so all passes
/// of a run must agree on [`Pass::digest`].
#[derive(Debug, Clone, Default)]
pub struct Pass {
    /// Ops submitted.
    pub submitted: u64,
    /// Ops that completed with an output.
    pub completed: u64,
    /// Ops refused at admission (quota or queue).
    pub shed: u64,
    /// Ops that ended in a typed failure.
    pub failed: u64,
    /// Ops whose output failed a check made during the pass.
    pub wrong: u64,
    /// Simulated latency of each completed op.
    pub sim_lat: Vec<f64>,
    pub sim: SimSplit,
    /// The pass's simulated total as the library's own reports give it,
    /// where `sim` is assembled from separate records (serve, churn).
    pub sim_library: Option<f64>,
    /// Host ms of each closed-loop call into the library.
    pub calls_ms: Vec<f64>,
    /// Deterministic per-layer counts and simulated figures.
    pub counts: Vec<Metric>,
    /// Checksums of the outputs sampled for checking.
    pub out_sums: Vec<u64>,
}

impl Pass {
    pub fn digest(&self) -> u64 {
        let mut d = Digest::default();
        for w in [
            self.submitted,
            self.completed,
            self.shed,
            self.failed,
            self.wrong,
        ] {
            d.word(w);
        }
        for v in &self.sim_lat {
            d.f64(*v);
        }
        for v in [
            self.sim.prepare,
            self.sim.patch,
            self.sim.exec,
            self.sim.wasted,
        ] {
            d.f64(v);
        }
        for m in &self.counts {
            d.f64(m.value);
        }
        for s in &self.out_sums {
            d.word(*s);
        }
        d.finish()
    }

    /// Fail when the prepare + patch + exec + wasted split does not sum to
    /// the library's total. The two are summed in different orders, so
    /// they may differ by rounding alone.
    pub fn check_split(&self) -> Result<(), String> {
        let Some(lib) = self.sim_library else {
            return Ok(());
        };
        let split = self.sim.total();
        if (split - lib).abs() <= 1e-9 * lib.abs() {
            Ok(())
        } else {
            Err(format!(
                "the sim split sums to {split} ms but the library reports {lib} ms"
            ))
        }
    }

    pub fn count(&self, name: &str) -> f64 {
        self.counts
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
            .unwrap_or_else(|| panic!("pass has no count {name}"))
    }
}

pub trait Workload {
    /// Digest of every generated input.
    fn input_digest(&self) -> u64;

    /// One pass over the fixed op sequence with `workers` front workers
    /// (workloads without a front ignore it).
    fn pass(&mut self, workers: usize, tr: &mut Tracer) -> Pass;

    /// Check the outputs sampled by the first pass against independent
    /// computations; returns the number of mismatches. Workloads whose
    /// checks run inside the pass keep the default.
    fn verify(&mut self, _first: &Pass) -> u64 {
        0
    }

    /// Host ms of one restart: rebuilding the resident plans the run
    /// ended with. Errors when the restored state differs.
    fn restart(&mut self) -> Result<f64, String>;

    /// Fail when the run did not exercise the path the workload is named
    /// after. Called after the restarts.
    fn guard(&self, _first: &Pass) -> Result<(), String> {
        Ok(())
    }

    /// Re-run, outside the library, the layer calls the library made
    /// internally during `first`, each inside a span, so their cost can be
    /// estimated. Workloads whose spans wrap every layer call need none.
    fn decompose(&mut self, _first: &Pass, _tr: &mut Tracer) {}

    /// The per-layer metrics this workload owns, from the traced pass,
    /// the span totals of the traced phase and the decomposition.
    fn layers(&mut self, first: &Pass, spans: &Totals, est: &Totals) -> Vec<Metric>;
}

pub type Totals = BTreeMap<&'static str, SpanTotals>;

/// Per-op host ms of a span or estimate, 0 when it never ran.
pub fn per_op(t: &Totals, name: &str, ops: u64) -> f64 {
    t.get(name).map_or(0.0, |s| s.self_ms) / ops.max(1) as f64
}

/// Result of a timed phase.
pub struct Timed {
    pub first: Pass,
    pub passes: u64,
    pub submitted: u64,
    pub completed: u64,
    pub errors: u64,
    pub wall_s: f64,
    pub cpu_ms: f64,
    /// Wall seconds and CPU ms of each pass.
    pub pass_wall_s: Vec<f64>,
    pub pass_cpu_ms: Vec<f64>,
    pub calls_ms: Vec<f64>,
    /// Host ms of the restart after each pass, when restarts were asked
    /// for, and the first restart error.
    pub restarts_ms: Vec<f64>,
    pub restart_error: Option<String>,
    pub mismatched_passes: u64,
}

impl Timed {
    /// Completed ops per wall second: the median over passes, so a stall
    /// in one pass does not move it. Every pass completes the same ops.
    pub fn ops_per_s(&self) -> f64 {
        self.first.completed as f64 / host::median(&self.pass_wall_s)
    }

    /// CPU ms per completed op, the median over passes.
    pub fn cpu_ms_per_op(&self) -> f64 {
        host::median(&self.pass_cpu_ms) / self.first.completed.max(1) as f64
    }
}

/// Run passes until `seconds` of wall time have gone (at least one). With
/// `restarts`, a restart follows each pass, outside the pass's own timing,
/// so restarts sample the host's state over the whole phase.
pub fn timed(
    w: &mut dyn Workload,
    workers: usize,
    seconds: f64,
    restarts: bool,
    tr: &mut Tracer,
) -> Timed {
    let t0 = Instant::now();
    let c0 = host::cpu_ms();
    let mut first: Option<Pass> = None;
    let mut t = Timed {
        first: Pass::default(),
        passes: 0,
        submitted: 0,
        completed: 0,
        errors: 0,
        wall_s: 0.0,
        cpu_ms: 0.0,
        pass_wall_s: Vec::new(),
        pass_cpu_ms: Vec::new(),
        calls_ms: Vec::new(),
        restarts_ms: Vec::new(),
        restart_error: None,
        mismatched_passes: 0,
    };
    loop {
        let (pw, pc) = (Instant::now(), host::cpu_ms());
        let mut p = w.pass(workers, tr);
        t.pass_cpu_ms.push(host::cpu_ms() - pc);
        t.pass_wall_s.push(pw.elapsed().as_secs_f64());
        t.passes += 1;
        t.submitted += p.submitted;
        t.completed += p.completed;
        t.errors += p.shed + p.failed + p.wrong;
        t.calls_ms.append(&mut p.calls_ms);
        match &first {
            None => first = Some(p),
            Some(f) => {
                if f.digest() != p.digest() {
                    t.mismatched_passes += 1;
                }
            }
        }
        if restarts && t.restart_error.is_none() {
            match w.restart() {
                Ok(ms) => t.restarts_ms.push(ms),
                Err(e) => t.restart_error = Some(e),
            }
        }
        if t0.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    t.wall_s = t0.elapsed().as_secs_f64();
    t.cpu_ms = host::cpu_ms() - c0;
    t.first = first.expect("at least one pass ran");
    t
}
