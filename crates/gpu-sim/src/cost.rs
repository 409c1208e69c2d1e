//! Per-block cost descriptors and kernel run results.
//!
//! Kernels describe, per thread block, how much work of each kind they
//! performed; [`DeviceSpec::execute`](crate::DeviceSpec::execute) converts a
//! batch of blocks into simulated time.

use crate::device::DeviceSpec;
use crate::profile::KernelProfile;

/// Global-memory traffic of one thread block.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DramTraffic {
    /// Bytes read from global memory (after coalescing: whole transactions).
    pub bytes_loaded: u64,
    /// Bytes written to global memory.
    pub bytes_stored: u64,
    /// Number of memory transactions issued (cost driver for latency).
    pub transactions: u64,
}

impl DramTraffic {
    /// Merge another block's traffic into this one.
    pub fn add(&mut self, other: &DramTraffic) {
        self.bytes_loaded += other.bytes_loaded;
        self.bytes_stored += other.bytes_stored;
        self.transactions += other.transactions;
    }
}

/// Shared-memory traffic of one thread block.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SharedTraffic {
    /// Warp-wide shared loads issued.
    pub loads: u64,
    /// Warp-wide shared stores issued.
    pub stores: u64,
    /// Serialized replays caused by bank conflicts.
    pub bank_conflicts: u64,
}

impl SharedTraffic {
    /// Merge another block's traffic into this one.
    pub fn add(&mut self, other: &SharedTraffic) {
        self.loads += other.loads;
        self.stores += other.stores;
        self.bank_conflicts += other.bank_conflicts;
    }
}

/// Everything one thread block did, as counted by the kernel that ran it.
///
/// `cuda_fma_issues` and `wmma_issues` are *warp-wide* issue counts: one
/// `cuda_fma_issues` unit is 32 lanes doing one FMA each; one `wmma_issues`
/// unit is one WMMA fragment multiply-accumulate by one warp.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct BlockCost {
    /// Warp-wide FP32 FMA issues on the CUDA cores.
    pub cuda_fma_issues: u64,
    /// Warp-level WMMA issues on the Tensor cores.
    pub wmma_issues: u64,
    /// Global-memory traffic (demand: the issuing warp stalls on it).
    pub dram: DramTraffic,
    /// Asynchronous prefetch traffic (`cp.async`-style double-buffered
    /// stage loads): occupies DRAM bandwidth but overlaps compute — no
    /// dependent-latency chain, the data is fenced by the next barrier.
    pub prefetch: DramTraffic,
    /// Shared-memory traffic.
    pub shared: SharedTraffic,
    /// Number of warps the block runs with (controls intra-block overlap of
    /// memory latency; more warps hide more latency).
    pub warps: u32,
}

impl BlockCost {
    /// The cache-warm view of this block: DRAM byte traffic vanishes (the
    /// working set is L2-resident) while transaction latency and all other
    /// costs remain. This models the paper's microbenchmark protocol —
    /// characterization and selector-training matrices are executed 100
    /// times and averaged, so after the first run every dense-matrix access
    /// hits in cache (a 16×130 window's X is ~16 KB, far below L2).
    pub fn warm(mut self) -> BlockCost {
        self.dram.bytes_loaded = 0;
        self.dram.bytes_stored = 0;
        self.prefetch.bytes_loaded = 0;
        self.prefetch.bytes_stored = 0;
        self
    }

    /// A single-warp block whose compute cost is approximately `cycles` on
    /// the device's CUDA pipe (testing helper): issues are derived from the
    /// per-issue cost so the helper stays honest if that constant changes.
    pub fn with_cuda_compute(cycles: f64) -> Self {
        // Mirrors DeviceSpec::cuda_fma_cycles (all presets share it).
        const ISSUE_CYCLES: f64 = 10.0;
        BlockCost {
            cuda_fma_issues: (cycles / ISSUE_CYCLES).ceil() as u64,
            warps: 1,
            ..Default::default()
        }
    }

    /// Compute cycles this block spends on its arithmetic pipes.
    pub fn compute_cycles(&self, d: &DeviceSpec) -> f64 {
        // Warp-wide FMA issues are distributed over the SM's warp schedulers;
        // an SM retires cuda_cores_per_sm/warp_size warp-FMAs per cycle when
        // saturated. A single block rarely saturates an SM alone, so we
        // charge the issue cost divided by the per-block parallelism
        // (bounded by its warp count).
        let warp_slots = (d.cuda_cores_per_sm / d.warp_size).max(1) as f64;
        let parallel = (self.warps.max(1) as f64).min(warp_slots);
        let cuda = self.cuda_fma_issues as f64 * d.cuda_fma_cycles / parallel;
        let tensor_slots = d.tensor_cores_per_sm.max(1) as f64;
        let tpar = (self.warps.max(1) as f64).min(tensor_slots);
        let tensor = self.wmma_issues as f64 * d.wmma_cycles / tpar;
        cuda + tensor
    }

    /// Cycles to stream this block's demand bytes at the SM's share of DRAM
    /// bandwidth.
    fn dram_stream_cycles(&self, d: &DeviceSpec) -> f64 {
        (self.dram.bytes_loaded + self.dram.bytes_stored) as f64 / d.bytes_per_cycle_per_sm()
    }

    /// The dependent-latency chain: demand-transaction latency after
    /// warp-level hiding, plus the shared-memory LSU occupancy that
    /// serializes with it.
    fn latency_chain_cycles(&self, d: &DeviceSpec) -> f64 {
        let hiding = (self.warps.max(1) as f64).sqrt();
        let latency = self.dram.transactions as f64 * d.dram_latency_cycles / hiding;
        let shared = (self.shared.loads + self.shared.stores) as f64 * d.shared_access_cycles
            + self.shared.bank_conflicts as f64 * d.bank_conflict_cycles;
        latency + shared
    }

    /// Cycles this block spends waiting on demand memory (global + shared),
    /// after warp-level latency hiding.
    pub fn memory_cycles(&self, d: &DeviceSpec) -> f64 {
        // Shared-memory accesses pipeline in the LSU concurrently with DRAM
        // streaming but serialize with the dependent-load latency chain.
        self.dram_stream_cycles(d).max(self.latency_chain_cycles(d))
    }

    /// Residual latency of the asynchronous prefetch stream. Double
    /// buffering gives each `cp.async` a full pipeline stage to land, so
    /// its latency is hidden linearly in the warp count — markedly better
    /// than the `sqrt(warps)` hiding of demand loads, but not free: the
    /// per-stage barrier still waits for the slowest outstanding copy.
    pub fn prefetch_residual_cycles(&self, d: &DeviceSpec) -> f64 {
        let hiding = self.warps.max(1) as f64;
        self.prefetch.transactions as f64 * d.dram_latency_cycles / hiding
    }

    /// Memory cycles with the prefetch stream folded in: prefetch bytes
    /// share the DRAM pipe with demand bytes (bandwidth is additive), while
    /// the prefetch residual chains with the demand-latency side. The same
    /// `max` that lets demand bandwidth and latency overlap applies, so a
    /// bandwidth-bound block is never charged prefetch latency on top of a
    /// saturated pipe. With no prefetch traffic this is exactly
    /// [`memory_cycles`](BlockCost::memory_cycles).
    pub fn combined_memory_cycles(&self, d: &DeviceSpec) -> f64 {
        let pstream = (self.prefetch.bytes_loaded + self.prefetch.bytes_stored) as f64
            / d.bytes_per_cycle_per_sm();
        let bandwidth = self.dram_stream_cycles(d) + pstream;
        let chain = self.latency_chain_cycles(d) + self.prefetch_residual_cycles(d);
        bandwidth.max(chain)
    }

    /// Total cycles charged to the SM that runs this block.
    pub fn cycles(&self, d: &DeviceSpec) -> f64 {
        // Compute and memory partially overlap thanks to warp switching; the
        // residual serialization factor is calibrated with the Fig. 1
        // crossover (see `device` module docs). The serialization tax stays
        // a function of demand memory only: prefetches never stall a warp.
        let c = self.compute_cycles(d);
        let m = self.memory_cycles(d);
        c.max(self.combined_memory_cycles(d)) + 0.35 * c.min(m)
    }
}

/// Result of simulating one kernel (or a fused sequence).
#[derive(Debug, Clone, Default)]
pub struct KernelRun {
    /// Simulated wall-clock time in milliseconds.
    pub time_ms: f64,
    /// SM makespan in cycles (excludes launch overhead and roofline clamp).
    pub makespan_cycles: f64,
    /// Aggregated hardware counters.
    pub profile: KernelProfile,
}

impl KernelRun {
    /// Merge a run that conceptually happened after this one.
    pub fn then(mut self, other: &KernelRun) -> KernelRun {
        self.time_ms += other.time_ms;
        self.makespan_cycles += other.makespan_cycles;
        self.profile.merge(&other.profile);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn more_warps_hide_more_latency() {
        let d = DeviceSpec::rtx3090();
        let mut few = BlockCost {
            warps: 1,
            ..Default::default()
        };
        few.dram.transactions = 1000;
        few.dram.bytes_loaded = 1000 * 32;
        let mut many = few;
        many.warps = 16;
        assert!(many.memory_cycles(&d) < few.memory_cycles(&d));
    }

    #[test]
    fn compute_and_memory_overlap_partially() {
        let d = DeviceSpec::rtx3090();
        let mut b = BlockCost {
            cuda_fma_issues: 10_000,
            warps: 4,
            ..Default::default()
        };
        b.dram.transactions = 10_000;
        b.dram.bytes_loaded = 10_000 * 128;
        let total = b.cycles(&d);
        let c = b.compute_cycles(&d);
        let m = b.memory_cycles(&d);
        assert!(total >= c.max(m));
        assert!(total <= c + m);
    }

    #[test]
    fn traffic_merging_adds_fields() {
        let mut a = DramTraffic {
            bytes_loaded: 10,
            bytes_stored: 20,
            transactions: 3,
        };
        a.add(&DramTraffic {
            bytes_loaded: 1,
            bytes_stored: 2,
            transactions: 4,
        });
        assert_eq!(a.bytes_loaded, 11);
        assert_eq!(a.bytes_stored, 22);
        assert_eq!(a.transactions, 7);
    }
}
