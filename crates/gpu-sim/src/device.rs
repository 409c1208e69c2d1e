//! Architectural constants for the simulated GPUs.
//!
//! Presets correspond to the three boards in the paper's evaluation
//! (RTX 3090 in the main body, RTX 4090 and A100 in Appendix A / Table XVI).
//! The structural numbers (SM count, core counts, clocks, bandwidth) are the
//! public board specifications; the per-operation issue costs are calibrated
//! once so that the Fig. 1(a) CUDA/Tensor crossover for a 16×32 row window at
//! dense dimension 32 lands near the 83 % sparsity the paper measures. No
//! per-dataset or per-baseline tuning exists anywhere in the workspace.

use crate::cost::{BlockCost, KernelRun};
use crate::faults;
use crate::profile::KernelProfile;
use crate::scheduler;

/// Which physical board the spec models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeviceKind {
    /// Nvidia GeForce RTX 3090 (Ampere, GA102) — the paper's main platform.
    Rtx3090,
    /// Nvidia GeForce RTX 4090 (Ada, AD102) — Appendix A.
    Rtx4090,
    /// Nvidia A100 (Ampere, GA100) — Appendix A.
    A100,
}

impl DeviceKind {
    /// All presets, in the order Table XVI lists them.
    pub const ALL: [DeviceKind; 3] = [DeviceKind::Rtx3090, DeviceKind::Rtx4090, DeviceKind::A100];

    /// Short display name matching the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            DeviceKind::Rtx3090 => "3090",
            DeviceKind::Rtx4090 => "4090",
            DeviceKind::A100 => "A100",
        }
    }
}

/// Architectural constants of one simulated GPU.
///
/// Times are derived as `cycles / clock_hz`; bandwidth-bound phases use the
/// DRAM roofline. All fields are public so experiments can build hypothetical
/// devices, but most callers should start from [`DeviceSpec::new`].
///
/// ```
/// use gpu_sim::{BlockCost, DeviceSpec};
/// let dev = DeviceSpec::rtx3090();
/// let run = dev.execute(&vec![BlockCost::with_cuda_compute(10_000.0); 82]);
/// assert!(run.time_ms > 0.0);
/// assert_eq!(run.profile.blocks, 82);
/// ```
#[derive(Debug, Clone)]
pub struct DeviceSpec {
    /// Board identity (controls nothing by itself; presets fill the fields).
    pub kind: DeviceKind,
    /// Number of streaming multiprocessors.
    pub num_sms: u32,
    /// CUDA cores (FP32 lanes) per SM.
    pub cuda_cores_per_sm: u32,
    /// Tensor cores per SM.
    pub tensor_cores_per_sm: u32,
    /// SM clock in GHz.
    pub clock_ghz: f64,
    /// Aggregate DRAM bandwidth in GB/s.
    pub dram_bandwidth_gbs: f64,
    /// Latency of a DRAM transaction in cycles (exposed portion after
    /// warp-level latency hiding).
    pub dram_latency_cycles: f64,
    /// Shared-memory capacity per SM in bytes.
    pub shared_mem_per_sm: u32,
    /// Maximum resident thread blocks per SM (occupancy cap).
    pub max_blocks_per_sm: u32,
    /// Threads per warp (32 on every Nvidia GPU).
    pub warp_size: u32,
    /// Global-memory transaction granularity in bytes (L1 enabled).
    pub transaction_bytes: u32,
    /// Number of independent shared-memory banks.
    pub shared_banks: u32,
    /// Kernel launch overhead in microseconds. The paper measures ≈0.03 ms
    /// per matrix-multiplication kernel launch (§V-A, footnote 12); that
    /// includes driver queueing for a full mm kernel. We model the raw
    /// per-launch cost.
    pub launch_overhead_us: f64,
    /// Cycles of SM issue bandwidth consumed by one warp-wide CSR
    /// multiply-accumulate step on the CUDA cores — the FFMA itself plus
    /// the two shared-memory index/value reads, the address computation and
    /// the gather issue that accompany it in Algorithm 3's inner loop.
    pub cuda_fma_cycles: f64,
    /// Cycles for one WMMA (m16n16k8 TF32) issue per warp on a Tensor core,
    /// including the fragment load from shared memory into registers.
    pub wmma_cycles: f64,
    /// Cycles to service one shared-memory access (per warp, conflict-free).
    pub shared_access_cycles: f64,
    /// Extra cycles per serialized bank-conflict replay.
    pub bank_conflict_cycles: f64,
}

impl DeviceSpec {
    /// Construct the preset spec for `kind`.
    pub fn new(kind: DeviceKind) -> Self {
        // Issue-cost constants shared by all presets; see module docs for the
        // calibration procedure.
        let base = DeviceSpec {
            kind,
            num_sms: 82,
            cuda_cores_per_sm: 128,
            tensor_cores_per_sm: 4,
            clock_ghz: 1.70,
            dram_bandwidth_gbs: 936.0,
            dram_latency_cycles: 28.0,
            shared_mem_per_sm: 100 * 1024,
            max_blocks_per_sm: 16,
            warp_size: 32,
            transaction_bytes: 128,
            shared_banks: 32,
            launch_overhead_us: 3.0,
            cuda_fma_cycles: 10.0,
            wmma_cycles: 34.0,
            shared_access_cycles: 1.0,
            bank_conflict_cycles: 1.0,
        };
        match kind {
            // RTX 3090: 82 SMs, 10 496 CUDA cores, 328 Tensor cores, 936 GB/s.
            DeviceKind::Rtx3090 => base,
            // RTX 4090: 128 SMs, 16 384 CUDA cores, 512 Tensor cores,
            // 1 008 GB/s, higher clock.
            DeviceKind::Rtx4090 => DeviceSpec {
                num_sms: 128,
                clock_ghz: 2.52,
                dram_bandwidth_gbs: 1008.0,
                ..base
            },
            // A100 (SXM): 108 SMs, 6 912 CUDA cores (64/SM), 432 Tensor
            // cores, 1 555 GB/s HBM2e, lower clock. Fewer FP32 lanes per SM
            // makes small-kernel latency worse, matching the paper's Table
            // XVI where the A100 is often the slowest of the three on these
            // latency-bound SpMM kernels.
            DeviceKind::A100 => DeviceSpec {
                num_sms: 108,
                cuda_cores_per_sm: 64,
                clock_ghz: 1.41,
                dram_bandwidth_gbs: 1555.0,
                dram_latency_cycles: 34.0,
                shared_mem_per_sm: 164 * 1024,
                ..base
            },
        }
    }

    /// The paper's main platform.
    pub fn rtx3090() -> Self {
        Self::new(DeviceKind::Rtx3090)
    }

    /// Appendix A platform.
    pub fn rtx4090() -> Self {
        Self::new(DeviceKind::Rtx4090)
    }

    /// Appendix A platform.
    pub fn a100() -> Self {
        Self::new(DeviceKind::A100)
    }

    /// Clock in Hz.
    pub fn clock_hz(&self) -> f64 {
        self.clock_ghz * 1e9
    }

    /// DRAM bytes one SM can move per cycle, assuming bandwidth is shared
    /// evenly across SMs (the roofline check in [`execute`] handles global
    /// saturation).
    ///
    /// [`execute`]: DeviceSpec::execute
    pub fn bytes_per_cycle_per_sm(&self) -> f64 {
        (self.dram_bandwidth_gbs * 1e9) / self.clock_hz() / self.num_sms as f64
    }

    /// Resident thread blocks one SM can hold given each block's
    /// shared-memory footprint — the occupancy the paper's Table IV
    /// discussion invokes ("YS has a low average degree which leads to less
    /// shared memory usage, thus increasing the number of warps that can be
    /// concurrently scheduled by GPU").
    pub fn max_resident_blocks(&self, shared_bytes_per_block: u32) -> u32 {
        if shared_bytes_per_block == 0 {
            return self.max_blocks_per_sm;
        }
        (self.shared_mem_per_sm / shared_bytes_per_block).clamp(1, self.max_blocks_per_sm)
    }

    /// Simulate the execution of one kernel consisting of `blocks` thread
    /// blocks, independently schedulable onto SMs.
    ///
    /// The time is `max(SM makespan, DRAM roofline) + launch overhead`. The
    /// profile aggregates the counters of every block.
    pub fn execute(&self, blocks: &[BlockCost]) -> KernelRun {
        hc_parallel::sync::assert_no_hazard_guards("DeviceSpec::execute");
        faults::observe_launch();
        let mut profile = KernelProfile::default();
        for b in blocks {
            profile.absorb(b);
        }
        profile.launches = 1;

        let block_cycles: Vec<f64> = blocks.iter().map(|b| b.cycles(self)).collect();
        let makespan = scheduler::makespan(&block_cycles, self.num_sms, self.max_blocks_per_sm);

        let total_dram_bytes = profile.dram_bytes_loaded + profile.dram_bytes_stored;
        let roofline_s = total_dram_bytes as f64 / (self.dram_bandwidth_gbs * 1e9);
        let compute_s = makespan / self.clock_hz();

        let time_s = compute_s.max(roofline_s) + self.launch_overhead_us * 1e-6;
        KernelRun {
            time_ms: time_s * 1e3,
            makespan_cycles: makespan,
            profile,
        }
    }

    /// Simulate two block families executing *concurrently*, each on its
    /// own SM partition (CUDA-windows and Tensor-windows in separate
    /// streams). The paper's Appendix H notes that HC-SpMM leaves one core
    /// type idle while the other runs; this is the future-work mode that
    /// would overlap them. The partition is chosen to minimize the larger
    /// makespan; DRAM stays shared (one roofline).
    pub fn execute_concurrent(&self, a: &[BlockCost], b: &[BlockCost]) -> KernelRun {
        hc_parallel::sync::assert_no_hazard_guards("DeviceSpec::execute_concurrent");
        if a.is_empty() || b.is_empty() {
            let mut all = a.to_vec();
            all.extend_from_slice(b);
            return self.execute(&all);
        }
        faults::observe_launch();
        let mut profile = KernelProfile::default();
        for blk in a.iter().chain(b) {
            profile.absorb(blk);
        }
        profile.launches = 1;

        let ca: Vec<f64> = a.iter().map(|x| x.cycles(self)).collect();
        let cb: Vec<f64> = b.iter().map(|x| x.cycles(self)).collect();
        let mut best = f64::INFINITY;
        for sms_a in 1..self.num_sms {
            let sms_b = self.num_sms - sms_a;
            let ma = scheduler::makespan(&ca, sms_a, self.max_blocks_per_sm);
            let mb = scheduler::makespan(&cb, sms_b, self.max_blocks_per_sm);
            best = best.min(ma.max(mb));
        }

        let total_dram = profile.dram_bytes_loaded + profile.dram_bytes_stored;
        let roofline_s = total_dram as f64 / (self.dram_bandwidth_gbs * 1e9);
        let time_s = (best / self.clock_hz()).max(roofline_s) + self.launch_overhead_us * 1e-6;
        KernelRun {
            time_ms: time_s * 1e3,
            makespan_cycles: best,
            profile,
        }
    }

    /// Simulate several kernels launched back to back (e.g. the unfused
    /// Aggregation + Update pipeline): times add, launch overhead is paid per
    /// kernel, profiles merge.
    pub fn execute_sequence(&self, kernels: &[Vec<BlockCost>]) -> KernelRun {
        hc_parallel::sync::assert_no_hazard_guards("DeviceSpec::execute_sequence");
        let mut total = KernelRun::default();
        for blocks in kernels {
            let run = self.execute(blocks);
            total.time_ms += run.time_ms;
            total.makespan_cycles += run.makespan_cycles;
            total.profile.merge(&run.profile);
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::DramTraffic;

    #[test]
    fn presets_match_board_structure() {
        let d = DeviceSpec::rtx3090();
        assert_eq!(d.num_sms, 82);
        assert_eq!(d.num_sms * d.cuda_cores_per_sm, 10_496);
        assert_eq!(d.num_sms * d.tensor_cores_per_sm, 328);
        let d = DeviceSpec::rtx4090();
        assert_eq!(d.num_sms * d.cuda_cores_per_sm, 16_384);
        let d = DeviceSpec::a100();
        assert_eq!(d.num_sms * d.cuda_cores_per_sm, 6_912);
    }

    #[test]
    fn empty_kernel_costs_only_launch() {
        let d = DeviceSpec::rtx3090();
        let run = d.execute(&[]);
        assert!((run.time_ms - d.launch_overhead_us * 1e-3).abs() < 1e-12);
    }

    #[test]
    fn time_monotone_in_compute() {
        let d = DeviceSpec::rtx3090();
        let small = vec![BlockCost::with_cuda_compute(1_000.0); 200];
        let big = vec![BlockCost::with_cuda_compute(10_000.0); 200];
        assert!(d.execute(&big).time_ms > d.execute(&small).time_ms);
    }

    #[test]
    fn roofline_binds_for_huge_traffic() {
        let d = DeviceSpec::rtx3090();
        // 1 GiB loaded by one block with negligible compute: the DRAM
        // roofline, not the SM makespan, must set the time.
        let b = BlockCost {
            dram: DramTraffic {
                bytes_loaded: 1 << 30,
                bytes_stored: 0,
                transactions: (1 << 30) / 128,
            },
            ..Default::default()
        };
        let run = d.execute(&[b]);
        let roofline_ms = (1u64 << 30) as f64 / (d.dram_bandwidth_gbs * 1e9) * 1e3;
        assert!(run.time_ms >= roofline_ms);
    }

    #[test]
    fn occupancy_tracks_shared_footprint() {
        let d = DeviceSpec::rtx3090();
        assert_eq!(d.max_resident_blocks(0), d.max_blocks_per_sm);
        assert_eq!(d.max_resident_blocks(d.shared_mem_per_sm), 1);
        // 10 KB blocks: 100 KB SM holds 10, capped by the block limit.
        assert_eq!(
            d.max_resident_blocks(10 * 1024),
            10u32.min(d.max_blocks_per_sm)
        );
        // Oversized request still runs one block.
        assert_eq!(d.max_resident_blocks(u32::MAX), 1);
    }

    #[test]
    fn sequence_adds_launch_overheads() {
        let d = DeviceSpec::rtx3090();
        let one = d.execute(&[BlockCost::with_cuda_compute(100.0)]);
        let two = d.execute_sequence(&[
            vec![BlockCost::with_cuda_compute(100.0)],
            vec![BlockCost::with_cuda_compute(100.0)],
        ]);
        assert!((two.time_ms - 2.0 * one.time_ms).abs() < 1e-9);
        assert_eq!(two.profile.launches, 2);
    }
}
