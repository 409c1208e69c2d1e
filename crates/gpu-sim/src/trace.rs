//! Trace-level micro-simulator — a validation harness for the analytic
//! block-cost model.
//!
//! The analytic model ([`BlockCost`]) converts aggregate work counts into
//! cycles with closed-form overlap assumptions. This module provides an
//! independent, finer-grained estimate: a per-warp operation trace executed
//! by an in-order interpreter with explicit issue ports (warp schedulers,
//! Tensor cores, the load/store unit) and a DRAM queue with latency and
//! bandwidth. It is far too slow to drive experiments, but tests use it to
//! check that the analytic model *ranks* workloads the same way a
//! mechanistic execution would (see `tests/model_validation.rs`).
//!
//! Traces are also the substrate for the [`sanitizer`]: shared-memory ops
//! can carry a word-granular address footprint, blocks declare their shared
//! allocation, and `__syncthreads()` is an explicit [`WarpOp::Barrier`] so
//! race / bounds / barrier-divergence analyses have something to chew on.
//!
//! [`BlockCost`]: crate::BlockCost
//! [`sanitizer`]: crate::sanitizer

use crate::cost::{BlockCost, DramTraffic, SharedTraffic};
use crate::device::DeviceSpec;

/// Direction of a shared-memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// Load from shared memory.
    Read,
    /// Store to shared memory.
    Write,
}

/// Word-granular footprint of one warp-wide shared-memory access: the warp
/// touches `words` consecutive 4-byte words starting at word `offset` of the
/// block's shared allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SharedAccess {
    /// Load or store.
    pub kind: AccessKind,
    /// First 4-byte word touched, relative to the block's allocation.
    pub offset: u32,
    /// Number of consecutive words touched.
    pub words: u32,
}

impl SharedAccess {
    /// One-past-the-end word of the footprint (saturating).
    pub fn end(&self) -> u32 {
        self.offset.saturating_add(self.words)
    }

    /// True when two footprints touch at least one common word.
    pub fn overlaps(&self, other: &SharedAccess) -> bool {
        self.offset < other.end() && other.offset < self.end()
    }
}

/// One instruction a warp issues, in program order.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WarpOp {
    /// Arithmetic issue on the CUDA pipe (one warp-wide FMA step).
    Compute,
    /// WMMA issue on a Tensor core.
    Wmma,
    /// Block-wide barrier (`__syncthreads()`): the warp stalls until every
    /// warp of the block has arrived at its matching barrier.
    Barrier,
    /// Warp-wide shared-memory access with `1 + conflicts` serialized
    /// passes. `access` carries the sanitizer-grade address footprint;
    /// `None` means the trace was built without address information (the
    /// interpreter does not need it, the sanitizer flags it).
    Shared {
        /// Extra serialized replays.
        conflicts: u32,
        /// Word-granular footprint, when known.
        access: Option<SharedAccess>,
    },
    /// Global-memory transaction of `bytes` (the warp stalls until data
    /// returns — the conservative in-order assumption).
    Global {
        /// Transaction payload.
        bytes: u32,
    },
    /// Asynchronous global-memory fetch of `bytes` into the *other* buffer
    /// of a double-buffered stage (`cp.async`-style): the transaction
    /// enters the DRAM queue, but the issuing warp does NOT stall — the
    /// data is for the next pipeline stage, fenced by the next barrier.
    /// This is how the pipelined tensor path overlaps fragment loads with
    /// the previous fragment's MMA cycles.
    Prefetch {
        /// Transaction payload.
        bytes: u32,
    },
}

impl WarpOp {
    /// Shared access with replay count only (no address footprint).
    pub fn shared(conflicts: u32) -> WarpOp {
        WarpOp::Shared {
            conflicts,
            access: None,
        }
    }

    /// Conflict-free shared load of `words` words at word `offset`.
    pub fn shared_read(offset: u32, words: u32) -> WarpOp {
        WarpOp::shared_access(AccessKind::Read, offset, words, 0)
    }

    /// Conflict-free shared store of `words` words at word `offset`.
    pub fn shared_write(offset: u32, words: u32) -> WarpOp {
        WarpOp::shared_access(AccessKind::Write, offset, words, 0)
    }

    /// Fully-specified shared access.
    pub fn shared_access(kind: AccessKind, offset: u32, words: u32, conflicts: u32) -> WarpOp {
        WarpOp::Shared {
            conflicts,
            access: Some(SharedAccess {
                kind,
                offset,
                words,
            }),
        }
    }
}

/// The program of one warp.
#[derive(Debug, Clone, Default)]
pub struct WarpTrace {
    /// Operations in issue order.
    pub ops: Vec<WarpOp>,
}

impl WarpTrace {
    /// Number of [`WarpOp::Barrier`]s in the program.
    pub fn barrier_count(&self) -> usize {
        self.ops
            .iter()
            .filter(|op| matches!(op, WarpOp::Barrier))
            .count()
    }
}

/// A thread block: one trace per warp plus the block's declared
/// shared-memory allocation (in 4-byte words), against which the sanitizer
/// bounds-checks every addressed access.
#[derive(Debug, Clone, Default)]
pub struct BlockTrace {
    /// Per-warp programs.
    pub warps: Vec<WarpTrace>,
    /// Declared shared-memory allocation of the block, in 4-byte words.
    /// Zero means "no shared memory declared".
    pub shared_alloc_words: u32,
}

impl BlockTrace {
    /// Total operations across warps.
    pub fn len(&self) -> usize {
        self.warps.iter().map(|w| w.ops.len()).sum()
    }

    /// True when no warp has work.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Append `op` to every warp — used for block-wide barriers.
    pub fn push_all(&mut self, op: WarpOp) {
        for w in &mut self.warps {
            w.ops.push(op);
        }
    }
}

/// Where a kernel's trace emitter writes its operations.
///
/// Emitters are generic over the sink so the *same* code path can produce
/// either a full per-op event trace ([`BlockTrace`] — what the sanitizer's
/// race / bounds / barrier analyses need) or a handful of accumulated
/// counters ([`CounterTrace`] — what the cost model and the conformance
/// lint need), without the hot path ever pushing per-access events into
/// vectors.
///
/// Contract emitters must follow:
///
/// * Declare warps with [`ensure_warps`](TraceSink::ensure_warps) before
///   recording on them; `record(w, ..)` requires `w < warp_count()`.
/// * Reserve shared memory through
///   [`alloc_shared`](TraceSink::alloc_shared) and address accesses
///   relative to the returned region base — that is what lets sequentially
///   composed phases (the per-tile hybrid) land in disjoint regions.
/// * Record block-wide barriers with
///   [`record_all`](TraceSink::record_all)`(WarpOp::Barrier)`, never via
///   [`record`](TraceSink::record): counter mode counts barrier *epochs*,
///   which only a block-wide arrival defines.
pub trait TraceSink {
    /// Declare that the block runs with at least `n` warps. Growing an
    /// event-mode block mid-stream pads the new warps with the barrier
    /// count already retired, keeping the block barrier-balanced.
    fn ensure_warps(&mut self, n: usize);

    /// Number of warps currently declared.
    fn warp_count(&self) -> usize;

    /// Reserve `words` more words of the block's shared allocation and
    /// return the base offset of the new region.
    fn alloc_shared(&mut self, words: u32) -> u32;

    /// Record one operation on warp `warp` (`warp < warp_count()`).
    fn record(&mut self, warp: usize, op: WarpOp);

    /// Record `op` on every declared warp — block-wide barriers.
    fn record_all(&mut self, op: WarpOp);
}

impl TraceSink for BlockTrace {
    fn ensure_warps(&mut self, n: usize) {
        if self.warps.len() >= n {
            return;
        }
        let bars = self
            .warps
            .iter()
            .map(|w| w.barrier_count())
            .max()
            .unwrap_or(0);
        self.warps.resize_with(n, || WarpTrace {
            ops: vec![WarpOp::Barrier; bars],
        });
    }

    fn warp_count(&self) -> usize {
        self.warps.len()
    }

    fn alloc_shared(&mut self, words: u32) -> u32 {
        let base = self.shared_alloc_words;
        self.shared_alloc_words += words;
        base
    }

    fn record(&mut self, warp: usize, op: WarpOp) {
        self.warps[warp].ops.push(op);
    }

    fn record_all(&mut self, op: WarpOp) {
        self.push_all(op);
    }
}

/// Aggregated, counter-mode view of a block's trace: the billable work of
/// the block without the per-op event vectors. This is what production
/// paths accumulate; the event-level [`BlockTrace`] stays behind sanitizer
/// entry points, which need addresses and ordering.
///
/// The cost model consumes either representation through
/// [`BlockCost::from`]; because both conversions go through these counters,
/// a counter-mode emission and a full event trace of the same kernel charge
/// *identical* cycles (pinned per kernel family by `trace_modes.rs` in
/// `hc-core`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CounterTrace {
    /// Warps the block runs with.
    pub warps: u32,
    /// Warp-wide CUDA-pipe FMA issues ([`WarpOp::Compute`]).
    pub compute_issues: u64,
    /// Tensor-core issues ([`WarpOp::Wmma`]).
    pub wmma_issues: u64,
    /// Block-wide barrier epochs (`__syncthreads()` the whole block
    /// retires together).
    pub barrier_epochs: u64,
    /// Warp-wide shared loads (direction-unknown accesses count here; the
    /// cost model only uses the load+store sum).
    pub shared_loads: u64,
    /// Warp-wide shared stores.
    pub shared_stores: u64,
    /// Serialized bank-conflict replays summed over shared accesses.
    pub bank_conflicts: u64,
    /// Global-memory transactions issued.
    pub global_transactions: u64,
    /// Bytes moved by those transactions ([`WarpOp::Global`] carries no
    /// direction, so loads and stores pool here).
    pub global_bytes: u64,
    /// Asynchronous prefetch transactions ([`WarpOp::Prefetch`]) — billed
    /// as bandwidth-only traffic that overlaps compute.
    pub prefetch_transactions: u64,
    /// Bytes moved by prefetch transactions.
    pub prefetch_bytes: u64,
    /// Declared shared allocation, in 4-byte words.
    pub shared_alloc_words: u32,
}

impl CounterTrace {
    /// Accumulate one non-barrier operation.
    fn count(&mut self, op: WarpOp) {
        match op {
            WarpOp::Compute => self.compute_issues += 1,
            WarpOp::Wmma => self.wmma_issues += 1,
            WarpOp::Shared { conflicts, access } => {
                match access.map(|a| a.kind) {
                    Some(AccessKind::Write) => self.shared_stores += 1,
                    _ => self.shared_loads += 1,
                }
                self.bank_conflicts += conflicts as u64;
            }
            WarpOp::Global { bytes } => {
                self.global_transactions += 1;
                self.global_bytes += bytes as u64;
            }
            WarpOp::Prefetch { bytes } => {
                self.prefetch_transactions += 1;
                self.prefetch_bytes += bytes as u64;
            }
            // Per-warp barrier arrivals carry no billable work; epochs are
            // counted in `record_all` / `from_trace`.
            WarpOp::Barrier => {}
        }
    }

    /// Total operations the counters stand for — equals
    /// [`BlockTrace::len`] of the equivalent event trace for
    /// barrier-uniform blocks (each epoch is one barrier op per warp).
    pub fn ops(&self) -> u64 {
        self.compute_issues
            + self.wmma_issues
            + self.shared_loads
            + self.shared_stores
            + self.global_transactions
            + self.prefetch_transactions
            + self.barrier_epochs * self.warps as u64
    }

    /// Recount a full event trace into counters. Barrier epochs are the
    /// maximum per-warp barrier count — every emitter in this workspace
    /// produces barrier-uniform blocks, so this is also each warp's count.
    pub fn from_trace(t: &BlockTrace) -> CounterTrace {
        let mut c = CounterTrace {
            warps: t.warps.len() as u32,
            shared_alloc_words: t.shared_alloc_words,
            ..CounterTrace::default()
        };
        c.barrier_epochs = t.warps.iter().map(|w| w.barrier_count()).max().unwrap_or(0) as u64;
        for w in &t.warps {
            for &op in &w.ops {
                c.count(op);
            }
        }
        c
    }
}

impl TraceSink for CounterTrace {
    fn ensure_warps(&mut self, n: usize) {
        self.warps = self.warps.max(n as u32);
    }

    fn warp_count(&self) -> usize {
        self.warps as usize
    }

    fn alloc_shared(&mut self, words: u32) -> u32 {
        let base = self.shared_alloc_words;
        self.shared_alloc_words += words;
        base
    }

    fn record(&mut self, warp: usize, op: WarpOp) {
        debug_assert!(
            (warp as u32) < self.warps.max(1),
            "record on undeclared warp {warp}"
        );
        debug_assert!(
            !matches!(op, WarpOp::Barrier),
            "block-wide barriers must go through record_all"
        );
        self.count(op);
    }

    fn record_all(&mut self, op: WarpOp) {
        if matches!(op, WarpOp::Barrier) {
            self.barrier_epochs += 1;
        } else {
            for _ in 0..self.warps {
                self.count(op);
            }
        }
    }
}

impl From<&CounterTrace> for BlockCost {
    /// The billable view of a counter trace. [`WarpOp::Global`] is
    /// directionless, so all global bytes land in `bytes_loaded`; the cost
    /// model streams the load+store sum, so cycles are unaffected.
    fn from(c: &CounterTrace) -> BlockCost {
        BlockCost {
            cuda_fma_issues: c.compute_issues,
            wmma_issues: c.wmma_issues,
            dram: DramTraffic {
                bytes_loaded: c.global_bytes,
                bytes_stored: 0,
                transactions: c.global_transactions,
            },
            prefetch: DramTraffic {
                bytes_loaded: c.prefetch_bytes,
                bytes_stored: 0,
                transactions: c.prefetch_transactions,
            },
            shared: SharedTraffic {
                loads: c.shared_loads,
                stores: c.shared_stores,
                bank_conflicts: c.bank_conflicts,
            },
            warps: c.warps,
        }
    }
}

impl From<&BlockTrace> for BlockCost {
    /// The billable view of an event trace — defined as the counter view of
    /// its recount, so both representations charge identical cycles.
    fn from(t: &BlockTrace) -> BlockCost {
        BlockCost::from(&CounterTrace::from_trace(t))
    }
}

/// Execute a block trace on one SM; returns the cycle count.
///
/// Model: each cycle, up to `cuda_cores/warp_size` warp schedulers issue one
/// ready warp each (compute/shared/global issue); Tensor issues are limited
/// by `tensor_cores_per_sm`; the LSU serves one shared access pass per
/// cycle; global loads enter a DRAM queue that returns data after
/// `dram_latency_cycles` plus queuing delay at the SM's bandwidth share.
/// A [`WarpOp::Barrier`] retires only once every other warp has arrived at
/// a matching barrier (or run out of ops — a divergence the sanitizer
/// reports, but which must not hang the interpreter).
pub fn simulate_block(trace: &BlockTrace, d: &DeviceSpec) -> f64 {
    let n = trace.warps.len();
    if n == 0 || trace.is_empty() {
        return 0.0;
    }
    let sched_slots = (d.cuda_cores_per_sm / d.warp_size).max(1) as usize;
    let tensor_slots = d.tensor_cores_per_sm.max(1) as usize;
    let bpc = d.bytes_per_cycle_per_sm();

    // Per-warp state.
    let mut pc = vec![0usize; n];
    let mut ready_at = vec![0f64; n];
    // Barriers each warp has retired so far.
    let mut bars = vec![0usize; n];
    // Port availability.
    let mut lsu_free_at = 0f64;
    let mut dram_free_at = 0f64;

    let mut cycle = 0f64;
    let mut remaining: usize = trace.len();
    // Round-robin pointer for fairness.
    let mut rr = 0usize;

    // A warp counts as "arrived" at barrier epoch `epoch` when it has either
    // already retired more barriers, is parked on its matching barrier, or
    // has exhausted its program (divergent trace; see doc comment).
    let arrived = |w: usize, epoch: usize, pc: &[usize], bars: &[usize]| -> bool {
        bars[w] > epoch
            || pc[w] >= trace.warps[w].ops.len()
            || (bars[w] == epoch && matches!(trace.warps[w].ops[pc[w]], WarpOp::Barrier))
    };

    while remaining > 0 {
        let mut issued_sched = 0usize;
        let mut issued_tensor = 0usize;
        let mut progressed = false;

        for k in 0..n {
            if issued_sched >= sched_slots {
                break;
            }
            let w = (rr + k) % n;
            if pc[w] >= trace.warps[w].ops.len() || ready_at[w] > cycle {
                continue;
            }
            let op = trace.warps[w].ops[pc[w]];
            match op {
                WarpOp::Compute => {
                    ready_at[w] = cycle + d.cuda_fma_cycles;
                }
                WarpOp::Wmma => {
                    if issued_tensor >= tensor_slots {
                        continue;
                    }
                    issued_tensor += 1;
                    ready_at[w] = cycle + d.wmma_cycles;
                }
                WarpOp::Barrier => {
                    let epoch = bars[w];
                    if (0..n).any(|o| o != w && !arrived(o, epoch, &pc, &bars)) {
                        continue;
                    }
                    bars[w] += 1;
                    ready_at[w] = cycle + 1.0;
                }
                WarpOp::Shared { conflicts, .. } => {
                    if lsu_free_at > cycle {
                        continue;
                    }
                    let passes = (1 + conflicts) as f64 * d.shared_access_cycles;
                    lsu_free_at = cycle + passes;
                    ready_at[w] = cycle + passes + 1.0;
                }
                WarpOp::Global { bytes } => {
                    // Enter the DRAM queue: service time = bytes at the SM's
                    // bandwidth share; data returns after queue + latency.
                    let start = dram_free_at.max(cycle);
                    let service = bytes as f64 / bpc;
                    dram_free_at = start + service;
                    ready_at[w] = start + service + d.dram_latency_cycles;
                }
                WarpOp::Prefetch { bytes } => {
                    // Same DRAM queue occupancy, but the issuing warp keeps
                    // running: the data lands in the other pipeline buffer,
                    // fenced by the next barrier (the closing drain below
                    // still charges any bandwidth left in flight).
                    let start = dram_free_at.max(cycle);
                    dram_free_at = start + bytes as f64 / bpc;
                    ready_at[w] = cycle + 1.0;
                }
            }
            pc[w] += 1;
            remaining -= 1;
            issued_sched += 1;
            progressed = true;
        }
        rr = (rr + 1) % n;

        if progressed {
            cycle += 1.0;
        } else {
            // Nothing issuable: jump to the next wake-up. Barrier-parked
            // warps have ready_at in the past, so this degrades to +1-cycle
            // steps until the lagging warps arrive — correct and finite,
            // since the least-synchronized warp can always make progress.
            let mut next = f64::INFINITY;
            for w in 0..n {
                if pc[w] < trace.warps[w].ops.len() {
                    next = next.min(ready_at[w].max(cycle + 1.0));
                }
            }
            next = next.min(lsu_free_at.max(cycle + 1.0));
            cycle = if next.is_finite() { next } else { cycle + 1.0 };
        }
    }
    // Drain: finish the last in-flight operations.
    let tail = ready_at.iter().cloned().fold(0.0, f64::max);
    cycle.max(tail).max(dram_free_at)
}

/// Build the trace of the optimized CUDA SpMM kernel (Algorithm 3) for one
/// row window: the block cooperatively stages the window's CSR entries in
/// shared memory (two words — column index and value — per edge), barriers,
/// then each warp walks its row issuing shared entry reads, global X
/// gathers and FMA steps per 32-wide slice.
pub fn cuda_window_trace(row_nnz: &[usize], dim: usize, d: &DeviceSpec) -> BlockTrace {
    let slices = dim.div_ceil(32);
    let nwarps = row_nnz.len().max(1);
    let total_nnz: usize = row_nnz.iter().sum();
    // Two words (colIdx, value) per staged edge, stored 32 words per
    // cooperative write.
    let stage_stores = (total_nnz * 2).div_ceil(32);
    let alloc_words = (stage_stores * 32) as u32;
    let mut t = BlockTrace {
        warps: vec![WarpTrace::default(); nwarps],
        shared_alloc_words: alloc_words,
    };
    for i in 0..stage_stores {
        let w = i % nwarps;
        t.warps[w].ops.push(WarpOp::Global {
            bytes: d.transaction_bytes,
        }); // edge list load
        t.warps[w]
            .ops
            .push(WarpOp::shared_write((i * 32) as u32, 32));
    }
    t.push_all(WarpOp::Barrier);
    // Per-row compute phase: warp r owns row r.
    let mut row_base = 0usize;
    for (r, &nnz) in row_nnz.iter().enumerate() {
        let ops = &mut t.warps[r].ops;
        for _slice in 0..slices {
            for k in 0..nnz {
                // colIdx+val broadcast read of staged entry k of this row.
                ops.push(WarpOp::shared_read((2 * (row_base + k)) as u32, 2));
                ops.push(WarpOp::Global {
                    bytes: d.transaction_bytes.min(dim as u32 * 4),
                }); // X row gather
                ops.push(WarpOp::Compute); // FMA step
            }
            ops.push(WarpOp::Global {
                bytes: d.transaction_bytes.min(dim as u32 * 4),
            }); // Z store
        }
        row_base += nnz;
    }
    t
}

/// Build the trace of the optimized Tensor SpMM kernel (Algorithm 4) for
/// one condensed window, with the cuTeSpMM-style pipelined X staging: the
/// A-fragment conversion lands in shared memory, fragment 0 is staged
/// synchronously, then each iteration prefetches the *next* fragment into
/// the other half of a double buffer ([`WarpOp::Prefetch`] — the issuing
/// warps keep running) while the owning warp loads the current fragment
/// and issues its WMMA. One barrier per fragment fences the buffer swap;
/// buffer parity keeps the concurrent accesses disjoint.
pub fn tensor_window_trace(nnz: usize, nnz_cols: usize, dim: usize, d: &DeviceSpec) -> BlockTrace {
    let tiles = nnz_cols.div_ceil(8);
    let chunks = dim.div_ceil(16);
    let frags = tiles * chunks;
    let nwarps = 8usize;
    // Shared layout: [A-fragment region | X staging buffer ×2]. Each X
    // buffer holds one 8×16-value fragment (8 rows of 16 words); the two
    // halves alternate across fragments, fenced by the per-fragment
    // barrier.
    let a_stores = nnz.div_ceil(32);
    let a_words = (a_stores * 32) as u32;
    let x_words = 8u32 * 16;
    let mut t = BlockTrace {
        warps: vec![WarpTrace::default(); nwarps],
        shared_alloc_words: a_words + 2 * x_words,
    };
    let xb = |f: usize| a_words + (f % 2) as u32 * x_words;
    // A-fragment conversion, spread over warps.
    for i in 0..a_stores {
        let w = i % nwarps;
        t.warps[w].ops.push(WarpOp::Global {
            bytes: d.transaction_bytes,
        });
        t.warps[w]
            .ops
            .push(WarpOp::shared_write((i * 32) as u32, 32));
    }
    t.push_all(WarpOp::Barrier);
    if frags == 0 {
        return t;
    }
    // Fragment 0 is staged synchronously: 8 gathers of a 64-byte strip
    // stored conflict-free (Fig. 6).
    let mut turn = 0usize;
    for row in 0..8u32 {
        let w = turn % nwarps;
        t.warps[w].ops.push(WarpOp::Global { bytes: 64 });
        t.warps[w]
            .ops
            .push(WarpOp::shared_write(xb(0) + row * 16, 16));
        turn += 1;
    }
    t.push_all(WarpOp::Barrier);
    // Steady state: prefetch fragment f+1 into the other buffer (async —
    // no shared store ops, the copy lands directly) while the owning warp
    // (chunk c → warp c, Fig. 5b) consumes fragment f.
    for f in 0..frags {
        if f + 1 < frags {
            for _row in 0..8 {
                let w = turn % nwarps;
                t.warps[w].ops.push(WarpOp::Prefetch { bytes: 64 });
                turn += 1;
            }
        }
        let w = (f % chunks.max(1)) % nwarps;
        t.warps[w].ops.push(WarpOp::shared_read(xb(f), x_words)); // frag loads
        t.warps[w].ops.push(WarpOp::Wmma);
        t.push_all(WarpOp::Barrier); // buffer-swap fence
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_trace_costs_nothing() {
        let d = DeviceSpec::rtx3090();
        assert_eq!(simulate_block(&BlockTrace::default(), &d), 0.0);
    }

    #[test]
    fn compute_only_trace_is_issue_bound() {
        let d = DeviceSpec::rtx3090();
        // One warp, 100 dependent compute steps: ~100 × issue latency.
        let t = BlockTrace {
            warps: vec![WarpTrace {
                ops: vec![WarpOp::Compute; 100],
            }],
            shared_alloc_words: 0,
        };
        let c = simulate_block(&t, &d);
        assert!(c >= 100.0 * d.cuda_fma_cycles * 0.9, "{c}");
        // Four independent warps overlap on the schedulers: much less than
        // 4× the single-warp time.
        let t4 = BlockTrace {
            warps: vec![
                WarpTrace {
                    ops: vec![WarpOp::Compute; 100]
                };
                4
            ],
            shared_alloc_words: 0,
        };
        let c4 = simulate_block(&t4, &d);
        assert!(c4 < 2.0 * c, "parallel warps should overlap: {c4} vs {c}");
    }

    #[test]
    fn global_loads_serialize_on_bandwidth() {
        let d = DeviceSpec::rtx3090();
        let mk = |n: usize| BlockTrace {
            warps: vec![WarpTrace {
                ops: vec![WarpOp::Global { bytes: 128 }; n],
            }],
            shared_alloc_words: 0,
        };
        let c1 = simulate_block(&mk(10), &d);
        let c2 = simulate_block(&mk(100), &d);
        assert!(c2 > 5.0 * c1);
    }

    #[test]
    fn bank_conflicts_slow_shared_phases() {
        let d = DeviceSpec::rtx3090();
        let clean = BlockTrace {
            warps: vec![WarpTrace {
                ops: vec![WarpOp::shared(0); 200],
            }],
            shared_alloc_words: 0,
        };
        let conflicted = BlockTrace {
            warps: vec![WarpTrace {
                ops: vec![WarpOp::shared(3); 200],
            }],
            shared_alloc_words: 0,
        };
        assert!(simulate_block(&conflicted, &d) > 2.0 * simulate_block(&clean, &d));
    }

    #[test]
    fn barrier_joins_unbalanced_warps() {
        let d = DeviceSpec::rtx3090();
        // Warp 0 computes a long phase; warp 1 barriers immediately. The
        // barrier must hold warp 1 until warp 0 arrives, so total time is
        // ~the long phase plus the short one, not their overlap.
        let mut long_then_short = vec![WarpOp::Compute; 50];
        long_then_short.push(WarpOp::Barrier);
        long_then_short.extend([WarpOp::Compute; 5]);
        let mut short_then_long = vec![WarpOp::Barrier];
        short_then_long.extend([WarpOp::Compute; 50]);
        let t = BlockTrace {
            warps: vec![
                WarpTrace {
                    ops: long_then_short,
                },
                WarpTrace {
                    ops: short_then_long,
                },
            ],
            shared_alloc_words: 0,
        };
        let with_barrier = simulate_block(&t, &d);
        let mut no_bar = t.clone();
        for w in &mut no_bar.warps {
            w.ops.retain(|op| !matches!(op, WarpOp::Barrier));
        }
        let without_barrier = simulate_block(&no_bar, &d);
        assert!(
            with_barrier > 1.5 * without_barrier,
            "barrier must serialize the phases: {with_barrier} vs {without_barrier}"
        );
    }

    #[test]
    fn divergent_barrier_does_not_hang() {
        let d = DeviceSpec::rtx3090();
        // Warp 1 never reaches a barrier: the interpreter must treat its
        // exhausted program as arrival and still terminate.
        let t = BlockTrace {
            warps: vec![
                WarpTrace {
                    ops: vec![WarpOp::Barrier, WarpOp::Compute],
                },
                WarpTrace {
                    ops: vec![WarpOp::Compute; 3],
                },
            ],
            shared_alloc_words: 0,
        };
        let c = simulate_block(&t, &d);
        assert!(c.is_finite() && c > 0.0);
    }

    #[test]
    fn more_nnz_means_more_cuda_cycles() {
        let d = DeviceSpec::rtx3090();
        let sparse = cuda_window_trace(&[2; 16], 32, &d);
        let dense = cuda_window_trace(&[20; 16], 32, &d);
        assert!(simulate_block(&dense, &d) > 3.0 * simulate_block(&sparse, &d));
    }

    #[test]
    fn tensor_trace_scales_with_tiles_not_nnz() {
        let d = DeviceSpec::rtx3090();
        let sparse = tensor_window_trace(32, 32, 32, &d);
        let dense = tensor_window_trace(480, 32, 32, &d);
        let ts = simulate_block(&sparse, &d);
        let td = simulate_block(&dense, &d);
        // Same tiles: only the A conversion grows — modest change.
        assert!(td < 2.0 * ts, "tensor should be ~flat in nnz: {ts} vs {td}");
        let wide = tensor_window_trace(130, 128, 32, &d);
        assert!(simulate_block(&wide, &d) > 2.0 * ts, "but grows with cols");
    }
}
