//! Kernel profiling counters — the stand-in for nvprof / Nsight Compute.
//!
//! The paper's appendix tables report Tensor-core utilization (Table XIII),
//! per-core execution time (Table XIV), and compute/memory throughput
//! (Table XV). Those quantities derive from hardware counters; here they
//! derive from the same counters collected by construction.

use crate::cost::BlockCost;
use crate::device::DeviceSpec;

/// Aggregated counters of one simulated kernel (or kernel sequence).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct KernelProfile {
    /// Warp-wide FP32 FMA issues on CUDA cores.
    pub cuda_fma_issues: u64,
    /// Warp-level WMMA issues on Tensor cores.
    pub wmma_issues: u64,
    /// Bytes loaded from global memory.
    pub dram_bytes_loaded: u64,
    /// Bytes stored to global memory.
    pub dram_bytes_stored: u64,
    /// Global-memory transactions.
    pub dram_transactions: u64,
    /// Warp-wide shared-memory loads.
    pub shared_loads: u64,
    /// Warp-wide shared-memory stores.
    pub shared_stores: u64,
    /// Serialized bank-conflict replays.
    pub bank_conflicts: u64,
    /// Kernel launches included in this profile.
    pub launches: u64,
    /// Thread blocks executed.
    pub blocks: u64,
    /// Warps executed.
    pub warps: u64,
}

impl KernelProfile {
    /// Fold one block's counters into the profile.
    pub fn absorb(&mut self, b: &BlockCost) {
        self.cuda_fma_issues += b.cuda_fma_issues;
        self.wmma_issues += b.wmma_issues;
        self.dram_bytes_loaded += b.dram.bytes_loaded;
        self.dram_bytes_stored += b.dram.bytes_stored;
        self.dram_transactions += b.dram.transactions;
        self.shared_loads += b.shared.loads;
        self.shared_stores += b.shared.stores;
        self.bank_conflicts += b.shared.bank_conflicts;
        self.blocks += 1;
        self.warps += b.warps as u64;
    }

    /// Merge another kernel's profile (for sequences / training epochs).
    pub fn merge(&mut self, other: &KernelProfile) {
        self.cuda_fma_issues += other.cuda_fma_issues;
        self.wmma_issues += other.wmma_issues;
        self.dram_bytes_loaded += other.dram_bytes_loaded;
        self.dram_bytes_stored += other.dram_bytes_stored;
        self.dram_transactions += other.dram_transactions;
        self.shared_loads += other.shared_loads;
        self.shared_stores += other.shared_stores;
        self.bank_conflicts += other.bank_conflicts;
        self.launches += other.launches;
        self.blocks += other.blocks;
        self.warps += other.warps;
    }

    /// Total bytes moved to/from DRAM.
    pub fn dram_bytes(&self) -> u64 {
        self.dram_bytes_loaded + self.dram_bytes_stored
    }

    /// Tensor-core utilization over a run of `time_ms`: the fraction of the
    /// device's total WMMA issue slots the kernel used (Table XIII's
    /// metric). Low single-digit percentages are expected — the paper
    /// measures 2–4 % because CUDA and Tensor phases do not overlap.
    pub fn tensor_core_utilization(&self, d: &DeviceSpec, time_ms: f64) -> f64 {
        if time_ms <= 0.0 {
            return 0.0;
        }
        let cycles = time_ms * 1e-3 * d.clock_hz();
        let slots = cycles * d.num_sms as f64 * d.tensor_cores_per_sm as f64;
        let used = self.wmma_issues as f64 * d.wmma_cycles;
        (used / slots * 100.0).min(100.0)
    }

    /// Compute-throughput percentage (Table XV): issued arithmetic cycles as
    /// a fraction of the device's arithmetic capacity over the run.
    pub fn compute_throughput(&self, d: &DeviceSpec, time_ms: f64) -> f64 {
        if time_ms <= 0.0 {
            return 0.0;
        }
        let cycles = time_ms * 1e-3 * d.clock_hz();
        let warp_slots = (d.cuda_cores_per_sm / d.warp_size) as f64 * d.num_sms as f64;
        let cuda_capacity = cycles * warp_slots;
        let tensor_capacity = cycles * d.num_sms as f64 * d.tensor_cores_per_sm as f64;
        let used = self.cuda_fma_issues as f64 * d.cuda_fma_cycles
            + self.wmma_issues as f64 * d.wmma_cycles;
        (used / (cuda_capacity + tensor_capacity) * 100.0).min(100.0)
    }

    /// Memory-throughput percentage (Table XV): achieved DRAM bandwidth as a
    /// fraction of peak.
    pub fn memory_throughput(&self, d: &DeviceSpec, time_ms: f64) -> f64 {
        if time_ms <= 0.0 {
            return 0.0;
        }
        let achieved = self.dram_bytes() as f64 / (time_ms * 1e-3);
        (achieved / (d.dram_bandwidth_gbs * 1e9) * 100.0).min(100.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::DramTraffic;

    fn sample_block() -> BlockCost {
        BlockCost {
            cuda_fma_issues: 100,
            wmma_issues: 10,
            dram: DramTraffic {
                bytes_loaded: 1024,
                bytes_stored: 256,
                transactions: 10,
            },
            warps: 4,
            ..Default::default()
        }
    }

    #[test]
    fn absorb_accumulates() {
        let mut p = KernelProfile::default();
        p.absorb(&sample_block());
        p.absorb(&sample_block());
        assert_eq!(p.cuda_fma_issues, 200);
        assert_eq!(p.wmma_issues, 20);
        assert_eq!(p.dram_bytes(), 2 * 1280);
        assert_eq!(p.blocks, 2);
        assert_eq!(p.warps, 8);
    }

    #[test]
    fn merge_is_additive() {
        let mut a = KernelProfile::default();
        a.absorb(&sample_block());
        a.launches = 1;
        let mut b = a.clone();
        b.merge(&a);
        assert_eq!(b.cuda_fma_issues, 2 * a.cuda_fma_issues);
        assert_eq!(b.launches, 2);
    }

    #[test]
    fn utilizations_bounded() {
        let d = DeviceSpec::rtx3090();
        let mut p = KernelProfile::default();
        p.absorb(&sample_block());
        for t in [1e-6, 1.0, 100.0] {
            assert!(p.tensor_core_utilization(&d, t) <= 100.0);
            assert!(p.compute_throughput(&d, t) <= 100.0);
            assert!(p.memory_throughput(&d, t) <= 100.0);
        }
        assert_eq!(p.memory_throughput(&d, 0.0), 0.0);
    }

    #[test]
    fn shorter_time_means_higher_utilization() {
        let d = DeviceSpec::rtx3090();
        let mut p = KernelProfile::default();
        p.absorb(&sample_block());
        assert!(p.memory_throughput(&d, 0.001) > p.memory_throughput(&d, 0.01));
    }
}
