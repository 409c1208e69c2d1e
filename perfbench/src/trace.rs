//! In-memory spans recorded by the benchmark around its calls into the
//! library. A disabled tracer records nothing, so the untraced run pays
//! one branch per boundary.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::host;

/// One recorded span: name, start and end (ns since the tracer started),
/// the process CPU ms it covered, the enclosing span and the op it
/// belongs to.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub cpu_ms: f64,
    pub parent: Option<usize>,
    pub op: u64,
}

/// Token returned by [`Tracer::begin`]; pass it to [`Tracer::end`].
#[must_use]
pub struct Open(Option<usize>);

pub struct Tracer {
    enabled: bool,
    t0: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    op: u64,
}

/// Per-name aggregate of a trace: calls, total and self wall time, and
/// self CPU time (all threads of the process).
#[derive(Debug, Clone, Copy, Default)]
pub struct SpanTotals {
    pub calls: u64,
    pub total_ms: f64,
    pub self_ms: f64,
    pub self_cpu_ms: f64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            t0: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Mark the start of the next op; spans opened from now on carry its id.
    pub fn next_op(&mut self) {
        self.op += 1;
    }

    pub fn begin(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.t0.elapsed().as_nanos() as u64,
            end_ns: 0,
            cpu_ms: host::cpu_ms(),
            parent: self.stack.last().copied(),
            op: self.op,
        });
        self.stack.push(idx);
        Open(Some(idx))
    }

    pub fn end(&mut self, open: Open) {
        let Some(idx) = open.0 else { return };
        let top = self.stack.pop();
        assert_eq!(top, Some(idx), "spans must close in LIFO order");
        let s = &mut self.spans[idx];
        s.end_ns = self.t0.elapsed().as_nanos() as u64;
        s.cpu_ms = host::cpu_ms() - s.cpu_ms;
    }

    /// Run `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let open = self.begin(name);
        let r = f();
        self.end(open);
        r
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Aggregate by span name. A span's self time is its duration minus
    /// the durations of its direct children.
    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotals> {
        let mut child = vec![(0u64, 0.0f64); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p].0 += s.end_ns - s.start_ns;
                child[p].1 += s.cpu_ms;
            }
        }
        let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        for (s, (kid_ns, kid_cpu)) in self.spans.iter().zip(child) {
            let dur = s.end_ns - s.start_ns;
            let t = out.entry(s.name).or_default();
            t.calls += 1;
            t.total_ms += dur as f64 * 1e-6;
            t.self_ms += dur.saturating_sub(kid_ns) as f64 * 1e-6;
            t.self_cpu_ms += (s.cpu_ms - kid_cpu).max(0.0);
        }
        out
    }
}
