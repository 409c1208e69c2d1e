//! SpMM on CUDA cores — Algorithm 1 with the Algorithm 3 optimizations.
//!
//! One thread block processes one row window; one warp computes one row of
//! `Z` per 32-wide slice of the dense dimension, skipping zeros through the
//! CSR format. Two optimizations from §IV-D1:
//!
//! * **Generalization** — when `dim % 32 != 0`, the tail slice packs
//!   multiple rows per warp instead of idling lanes, so compute and X
//!   traffic are charged for the true dimension rather than the padded one.
//! * **Memory management** — column indices and values are staged in shared
//!   memory by all threads cooperatively, replacing the per-iteration
//!   global-memory broadcast reads.

use gpu_sim::trace::{BlockTrace, CounterTrace, TraceSink, WarpOp};
use gpu_sim::{coalesced_transactions, BlockCost, DeviceSpec, Precision};
use graph_sparse::{Csr, DenseMatrix, RowWindowPartition};

use super::{assert_operand_rows, numeric_rows, SpmmKernel, SpmmResult};

/// CUDA-core SpMM kernel.
#[derive(Debug, Clone, Copy)]
pub struct CudaSpmm {
    /// Stage CSR entries in shared memory (Algorithm 3 lines 1–5).
    pub shared_mem_edges: bool,
    /// Adaptive threads-per-row for unaligned dimensions (lines 6–19).
    pub generalized: bool,
    /// Operand precision: FP32 in the main experiments; half/bfloat16
    /// (Appendix B) halve value and dense-operand traffic.
    pub precision: Precision,
}

impl Default for CudaSpmm {
    fn default() -> Self {
        CudaSpmm {
            shared_mem_edges: true,
            generalized: true,
            precision: Precision::Fp32,
        }
    }
}

impl CudaSpmm {
    /// Fully optimized configuration (the deployed kernel).
    pub fn optimized() -> Self {
        Self::default()
    }

    /// Algorithm 1 without the §IV-D1 optimizations (ablation baseline).
    pub fn unoptimized() -> Self {
        CudaSpmm {
            shared_mem_edges: false,
            generalized: false,
            ..Self::default()
        }
    }

    /// With reduced-precision operands (Appendix B).
    pub fn with_precision(precision: Precision) -> Self {
        CudaSpmm {
            precision,
            ..Self::default()
        }
    }

    /// Cost of processing one row window as a thread block.
    ///
    /// `nnz` is the window's non-zero count, `distinct_cols` the number of
    /// distinct columns it touches (the cache-resident X rows), `rows` its
    /// height and `dim` the dense dimension.
    pub fn window_block_cost(
        &self,
        nnz: usize,
        distinct_cols: usize,
        rows: usize,
        dim: usize,
        dev: &DeviceSpec,
    ) -> BlockCost {
        let mut b = BlockCost {
            warps: rows.clamp(1, 16) as u32,
            ..Default::default()
        };
        let full_slices = dim / 32;
        let rem = dim % 32;
        // Slices the kernel iterates (padded when not generalized).
        let mem_slices = full_slices + usize::from(rem > 0);

        // -- Compute: one warp-wide FMA issue per nnz per slice. The
        // generalized kernel packs the tail so only rem/32 of an issue is
        // paid; the plain kernel pays a full issue with idle lanes.
        let tail_issue = if rem == 0 {
            0.0
        } else if self.generalized {
            rem as f64 / 32.0
        } else {
            1.0
        };
        b.cuda_fma_issues = (nnz as f64 * (full_slices as f64 + tail_issue)).ceil() as u64;

        // -- CSR entry access (colIdx u32 + one value per entry).
        let entry_bytes = 4 + self.precision.storage_bytes();
        if self.shared_mem_edges {
            // One cooperative coalesced load, then shared-memory broadcasts.
            b.dram.transactions +=
                coalesced_transactions(nnz as u64 * entry_bytes, dev.transaction_bytes);
            b.dram.bytes_loaded += nnz as u64 * entry_bytes;
            b.shared.stores += (nnz as u64).div_ceil(dev.warp_size as u64) * 2;
            b.shared.loads += (nnz * mem_slices) as u64;
        } else {
            // Per-iteration global broadcast reads: every k step of every
            // slice re-reads colIdx[k] and val[k]. Sequential addresses hit
            // the L1 after the leading sector, so DRAM traffic stays modest,
            // but the loads sit on the dependent-latency chain.
            b.dram.transactions += (nnz * mem_slices) as u64 * 2;
            b.dram.bytes_loaded += nnz as u64 * entry_bytes * 2;
        }

        // -- Dense-matrix gathers: each nnz triggers one transaction per
        // slice (rows of X are scattered), but DRAM traffic is deduplicated
        // to the window's distinct columns — the L1/L2 capture intra-window
        // reuse. The un-generalized kernel gathers the padded width.
        let x_width = if self.generalized || rem == 0 {
            dim
        } else {
            (full_slices + 1) * 32
        };
        let eb = self.precision.storage_bytes();
        b.dram.transactions += (nnz * mem_slices) as u64;
        b.dram.bytes_loaded += (distinct_cols * x_width) as u64 * eb;

        // -- Result stores, coalesced.
        b.dram.bytes_stored += (rows * dim) as u64 * eb;
        b.dram.transactions +=
            rows as u64 * coalesced_transactions(dim as u64 * 4, dev.transaction_bytes);

        b
    }

    /// Sanitizer-grade per-warp trace of the same row window: the op counts
    /// mirror [`window_block_cost`](CudaSpmm::window_block_cost) term by
    /// term (the cost-conformance lint holds this emitter to that), with
    /// the shared-memory staging of Algorithm 3 lines 1–5 made explicit —
    /// cooperative disjoint stores, a block barrier, then broadcast entry
    /// reads during the multiply phase.
    pub fn window_trace(
        &self,
        nnz: usize,
        distinct_cols: usize,
        rows: usize,
        dim: usize,
        dev: &DeviceSpec,
    ) -> BlockTrace {
        let mut t = BlockTrace::default();
        self.window_trace_into(nnz, distinct_cols, rows, dim, dev, &mut t);
        t
    }

    /// Counter-mode view of [`window_trace`](CudaSpmm::window_trace): the
    /// same emitter, accumulating counters instead of event vectors.
    pub fn window_counters(
        &self,
        nnz: usize,
        distinct_cols: usize,
        rows: usize,
        dim: usize,
        dev: &DeviceSpec,
    ) -> CounterTrace {
        let mut c = CounterTrace::default();
        self.window_trace_into(nnz, distinct_cols, rows, dim, dev, &mut c);
        c
    }

    /// The single trace emitter behind both representations, generic over
    /// the [`TraceSink`]. Composable: records into whatever warps/shared
    /// regions the sink already holds (the per-tile hybrid appends this as
    /// a phase of its merged block).
    pub fn window_trace_into<S: TraceSink>(
        &self,
        nnz: usize,
        distinct_cols: usize,
        rows: usize,
        dim: usize,
        dev: &DeviceSpec,
        sink: &mut S,
    ) {
        let _ = distinct_cols; // only affects byte traffic, not op counts
        let nwarps = rows.clamp(1, 16);
        let full_slices = dim / 32;
        let rem = dim % 32;
        let mem_slices = full_slices + usize::from(rem > 0);
        let tail_issue = if rem == 0 {
            0.0
        } else if self.generalized {
            rem as f64 / 32.0
        } else {
            1.0
        };
        let fma = (nnz as f64 * (full_slices as f64 + tail_issue)).ceil() as u64;
        let entry_bytes = 4 + self.precision.storage_bytes();

        sink.ensure_warps(nwarps);
        let mut turn = 0usize;
        let mut push = |sink: &mut S, op: WarpOp| {
            sink.record(turn % nwarps, op);
            turn += 1;
        };

        if self.shared_mem_edges {
            // Cooperative coalesced edge-list load + staging: two words
            // (colIdx, value) per entry, one 32-word store per warp step.
            let stage_loads =
                coalesced_transactions(nnz as u64 * entry_bytes, dev.transaction_bytes);
            let stage_stores = (nnz as u64).div_ceil(dev.warp_size as u64) * 2;
            let base = sink.alloc_shared(stage_stores as u32 * 32);
            for _ in 0..stage_loads {
                push(
                    sink,
                    WarpOp::Global {
                        bytes: dev.transaction_bytes,
                    },
                );
            }
            for i in 0..stage_stores {
                push(sink, WarpOp::shared_write(base + i as u32 * 32, 32));
            }
            sink.record_all(WarpOp::Barrier);
            // Multiply phase: per (slice, entry) a broadcast read of the
            // staged colIdx+value pair, then the X gather.
            for j in 0..nnz * mem_slices {
                let entry = (j % nnz.max(1)) as u32;
                push(sink, WarpOp::shared_read(base + entry * 2, 2));
                push(
                    sink,
                    WarpOp::Global {
                        bytes: dev.transaction_bytes.min(dim as u32 * 4),
                    },
                );
            }
        } else {
            // Per-iteration global broadcast reads of colIdx[k] and val[k],
            // plus the X gather — no shared memory, no barrier needed.
            for _ in 0..nnz * mem_slices {
                for _ in 0..3 {
                    push(
                        sink,
                        WarpOp::Global {
                            bytes: dev.transaction_bytes.min(dim as u32 * 4),
                        },
                    );
                }
            }
        }
        for _ in 0..fma {
            push(sink, WarpOp::Compute);
        }
        // Result stores, one coalesced run per row.
        let z_tx = coalesced_transactions(dim as u64 * 4, dev.transaction_bytes);
        for r in 0..rows {
            for _ in 0..z_tx {
                sink.record(
                    r % nwarps,
                    WarpOp::Global {
                        bytes: dev.transaction_bytes,
                    },
                );
            }
        }
    }
}

impl CudaSpmm {
    /// SpMM against a prebuilt row-window partition of `a` — the reusable
    /// half of [`spmm`](SpmmKernel::spmm), split out so a cached serving
    /// plan can amortize the partition build across requests. `part` must
    /// have been built from a matrix with `a`'s structure.
    /// Per-window block costs of the partition — the timing half of
    /// [`spmm_with_partition`](CudaSpmm::spmm_with_partition).
    pub fn partition_block_costs(
        &self,
        part: &RowWindowPartition,
        dim: usize,
        dev: &DeviceSpec,
    ) -> Vec<BlockCost> {
        part.windows
            .iter()
            .filter(|w| !w.is_empty())
            .map(|w| self.window_block_cost(w.nnz, w.nnz_cols(), w.rows, dim, dev))
            .collect()
    }

    /// SpMM against a prebuilt row-window partition of `a` — the reusable
    /// half of [`spmm`](SpmmKernel::spmm), split out so a cached serving
    /// plan can amortize the partition build across requests. `part` must
    /// have been built from a matrix with `a`'s structure.
    pub fn spmm_with_partition(
        &self,
        part: &RowWindowPartition,
        a: &Csr,
        x: &DenseMatrix,
        dev: &DeviceSpec,
    ) -> SpmmResult {
        let blocks = self.partition_block_costs(part, x.cols, dev);
        let run = dev.execute(&blocks);
        SpmmResult {
            z: self.numeric(a, x),
            run,
        }
    }

    /// Numerical result: exact at FP32 (bit-identical to
    /// [`Csr::spmm_reference`]); operand-quantized otherwise. Either way
    /// output rows are computed on the hc-parallel pool, one worker per
    /// row, in the serial entry order — bit-identical at any thread count.
    /// Split out so a cached plan can pair it with cached block costs.
    pub fn numeric(&self, a: &Csr, x: &DenseMatrix) -> DenseMatrix {
        assert_operand_rows(a, x.rows);
        let mut z = DenseMatrix::zeros(a.nrows, x.cols);
        if a.nrows > 0 && x.cols > 0 {
            let work = 2 * a.nnz() as u64 * x.cols as u64;
            hc_parallel::par_chunks_mut(&mut z.data, x.cols, work, |r, zrow| {
                numeric_rows(self.precision, a, r..r + 1, x, zrow);
            });
        }
        z
    }
}

impl SpmmKernel for CudaSpmm {
    fn name(&self) -> &'static str {
        "HC-CUDA"
    }

    fn spmm(&self, a: &Csr, x: &DenseMatrix, dev: &DeviceSpec) -> SpmmResult {
        self.spmm_with_partition(&RowWindowPartition::build(a), a, x, dev)
    }

    fn spmm_run(&self, a: &Csr, dim: usize, dev: &DeviceSpec) -> gpu_sim::KernelRun {
        let part = RowWindowPartition::build(a);
        dev.execute(&self.partition_block_costs(&part, dim, dev))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::assert_matches_reference;
    use graph_sparse::gen;

    #[test]
    fn result_is_exact() {
        let a = gen::erdos_renyi(100, 300, 1);
        let x = DenseMatrix::random_features(100, 32, 2);
        let dev = DeviceSpec::rtx3090();
        let r = CudaSpmm::optimized().spmm(&a, &x, &dev);
        assert_matches_reference(&a, &x, &r.z, 0.0);
        assert!(r.run.time_ms > 0.0);
    }

    #[test]
    fn time_decreases_with_sparsity() {
        // Same shape, fewer non-zeros → faster (the Fig. 1(a) falling curve).
        let dev = DeviceSpec::rtx3090();
        let dense = gen::training_window(16, 32, 480, 3);
        let sparse = gen::training_window(16, 32, 40, 3);
        let x = DenseMatrix::random_features(32, 32, 4);
        let k = CudaSpmm::optimized();
        let td = k.spmm(&dense, &x, &dev).run.time_ms;
        let ts = k.spmm(&sparse, &x, &dev).run.time_ms;
        assert!(ts < td, "sparse {ts} !< dense {td}");
    }

    #[test]
    fn generalization_helps_unaligned_dims() {
        let dev = DeviceSpec::rtx3090();
        let a = gen::erdos_renyi(512, 4096, 5);
        let x = DenseMatrix::random_features(512, 47, 6); // dim 47: the paper's example
        let opt = CudaSpmm::optimized();
        let plain = CudaSpmm {
            generalized: false,
            ..CudaSpmm::default()
        };
        let t_opt = opt.spmm(&a, &x, &dev).run.time_ms;
        let t_plain = plain.spmm(&a, &x, &dev).run.time_ms;
        assert!(t_opt < t_plain);
        // Aligned dims: no difference in issue counts.
        let x32 = DenseMatrix::random_features(512, 64, 6);
        let b_opt = opt.window_block_cost(100, 50, 16, 64, &dev);
        let b_plain = plain.window_block_cost(100, 50, 16, 64, &dev);
        assert_eq!(b_opt.cuda_fma_issues, b_plain.cuda_fma_issues);
        let _ = x32;
    }

    #[test]
    fn shared_memory_staging_helps() {
        let dev = DeviceSpec::rtx3090();
        let a = gen::community(1024, 8000, 32, 0.8, 7);
        let x = DenseMatrix::random_features(1024, 32, 8);
        let with = CudaSpmm::optimized();
        let without = CudaSpmm {
            shared_mem_edges: false,
            ..CudaSpmm::default()
        };
        let tw = with.spmm(&a, &x, &dev).run.time_ms;
        let to = without.spmm(&a, &x, &dev).run.time_ms;
        assert!(tw < to, "shared-mem staging should win: {tw} !< {to}");
    }

    #[test]
    fn empty_matrix_is_cheap_and_correct() {
        let a = Csr::empty(64, 64);
        let x = DenseMatrix::random_features(64, 16, 1);
        let dev = DeviceSpec::rtx3090();
        let r = CudaSpmm::optimized().spmm(&a, &x, &dev);
        assert_eq!(r.z, DenseMatrix::zeros(64, 16));
        assert_eq!(r.run.profile.blocks, 0);
    }
}
