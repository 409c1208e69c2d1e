//! The §IV-A *straightforward* combination strategy (Fig. 4a) — implemented
//! so the paper's argument against it can be measured, not just asserted.
//!
//! Instead of dispatching whole row windows, this kernel rearranges each
//! window's columns by per-column density, splits the condensed window into
//! 16×8 tiles, and picks a core type *per tile*: dense leading tiles go to
//! Tensor cores, the sparse tail to CUDA cores. The paper identifies three
//! costs that make this worse than the row-window unit:
//!
//! 1. **Result merging**: Tensor tiles accumulate in register fragments
//!    while CUDA tiles write shared/global memory; combining them needs an
//!    extra shared-memory round trip and add pass per window (measured at
//!    up to 31 % overhead — footnote 4).
//! 2. **Split edge storage**: each window's entries must be partitioned
//!    into a Tensor-ordered segment and a CSR segment, hurting locality and
//!    preprocessing cost.
//! 3. **Per-tile times are too small to measure**, leaving sparsity as the
//!    only usable selection feature (footnote 5).

use gpu_sim::trace::{BlockTrace, CounterTrace, TraceSink, WarpOp};
use gpu_sim::{coalesced_transactions, BlockCost, DeviceSpec, Precision};
use graph_sparse::{Csr, DenseMatrix, RowWindow, RowWindowPartition};

use super::cuda::CudaSpmm;
use super::tensor::TensorSpmm;
use super::{assert_operand_rows, SpmmKernel, SpmmResult};

/// The Fig. 4(a) per-tile hybrid kernel.
#[derive(Debug, Clone, Copy)]
pub struct StraightforwardHybrid {
    /// Tensor-tile density threshold: a 16×8 tile runs on Tensor cores when
    /// its fill ratio is at least this (sparsity is the only feature
    /// available at tile granularity).
    pub tile_density_threshold: f64,
}

impl Default for StraightforwardHybrid {
    fn default() -> Self {
        StraightforwardHybrid {
            tile_density_threshold: 0.25,
        }
    }
}

/// How one window's 16×8 tiles split across core types after the Fig. 4(a)
/// density rearrangement.
#[derive(Debug, Clone, Copy, Default)]
pub struct TileSplit {
    /// Tiles dense enough for Tensor cores.
    pub tensor_tiles: usize,
    /// Non-zeros inside the Tensor tiles.
    pub tensor_nnz: usize,
    /// Non-zeros left to the CUDA tail.
    pub cuda_nnz: usize,
    /// Condensed columns in the CUDA tail.
    pub cuda_cols: usize,
}

impl TileSplit {
    /// True when both core types contribute to the window's output rows —
    /// the case that pays the result-merging overhead.
    pub fn is_mixed(&self) -> bool {
        self.tensor_tiles > 0 && self.cuda_nnz > 0
    }
}

impl StraightforwardHybrid {
    /// Classify one window's tiles by density (the Fig. 4a rearrangement):
    /// per-column non-zero counts over the condensed window, sorted
    /// densest-first, walked in `tile_k`-wide tiles.
    pub fn tile_split(&self, w: &RowWindow, tile_k: usize) -> TileSplit {
        // Per-column fills straight off the occupancy bitmaps — no decode.
        let mut col_counts = w.meta.col_counts();
        col_counts.sort_unstable_by(|a, b| b.cmp(a));

        let mut split = TileSplit::default();
        for tile in col_counts.chunks(tile_k) {
            let fill: u32 = tile.iter().sum();
            let density = fill as f64 / (w.rows * tile_k) as f64;
            if density >= self.tile_density_threshold {
                split.tensor_tiles += 1;
                split.tensor_nnz += fill as usize;
            } else {
                split.cuda_nnz += fill as usize;
                split.cuda_cols += tile.len();
            }
        }
        split
    }

    /// Cost of one window under the per-tile strategy: both fragments run
    /// through the regular per-path models, plus — when both core types
    /// contribute — the result-merging overhead the row-window unit avoids.
    pub fn window_cost(&self, w: &RowWindow, dim: usize, dev: &DeviceSpec) -> BlockCost {
        let cuda = CudaSpmm::optimized();
        let tensor = TensorSpmm::optimized();
        let tile_k = Precision::Tf32.tile_k();
        let split = self.tile_split(w, tile_k);

        // Cost both fragments through the regular per-path models…
        let mut b = BlockCost {
            warps: 8,
            ..Default::default()
        };
        if split.tensor_tiles > 0 {
            let tb = tensor.window_block_cost(
                split.tensor_nnz,
                split.tensor_tiles * tile_k,
                w.rows,
                dim,
                dev,
            );
            merge_block(&mut b, &tb);
        }
        if split.cuda_nnz > 0 {
            let cb = cuda.window_block_cost(split.cuda_nnz, split.cuda_cols, w.rows, dim, dev);
            merge_block(&mut b, &cb);
        }
        // …then add what the row-window strategy avoids: when BOTH core
        // types contribute to the same output rows, the Tensor-side
        // fragments must spill to shared memory, be added to the CUDA
        // partials, and the combined rows stored — an extra Z-sized
        // shared round trip plus an add pass (footnote 4's ≤31 %).
        if split.is_mixed() {
            let z_words = (w.rows * dim) as u64;
            // Every Tensor warp's accumulator fragments spill to shared
            // memory once per 16-wide dim chunk (they cannot stay in
            // registers across the merge barrier), the CUDA partials
            // are read back, added, and the sum re-staged for the
            // store — two full passes over the window's output.
            b.shared.stores += z_words.div_ceil(8) * 2;
            b.shared.loads += z_words.div_ceil(8) * 2;
            b.cuda_fma_issues += z_words.div_ceil(32); // the add pass
                                                       // Double Z store removed: only one final store, but the
                                                       // split edge segments cost an extra index stream.
            b.dram.transactions += coalesced_transactions(w.nnz as u64 * 4, dev.transaction_bytes);
            b.dram.bytes_loaded += w.nnz as u64 * 4;
            // The per-path models each charged a Z store; merging means it
            // is stored once.
            let z_bytes = (w.rows * dim) as u64 * 4;
            b.dram.bytes_stored = b.dram.bytes_stored.saturating_sub(z_bytes);
            b.dram.transactions = b.dram.transactions.saturating_sub(
                w.rows as u64 * coalesced_transactions(dim as u64 * 4, dev.transaction_bytes),
            );
        }
        b
    }

    /// Sanitizer-grade trace of one window under the per-tile strategy:
    /// the Tensor sub-program, the CUDA tail and — for mixed windows — the
    /// merge pass run as barrier-separated sequential phases of one block,
    /// mirroring [`window_cost`](StraightforwardHybrid::window_cost). In a
    /// mixed window only the CUDA phase stores Z (the cost model likewise
    /// removes the double store).
    pub fn window_trace(&self, w: &RowWindow, dim: usize, dev: &DeviceSpec) -> BlockTrace {
        let mut t = BlockTrace::default();
        self.window_trace_into(w, dim, dev, &mut t);
        t
    }

    /// Counter-mode view of
    /// [`window_trace`](StraightforwardHybrid::window_trace): the same
    /// phase sequence, accumulating counters instead of event vectors.
    pub fn window_counters(&self, w: &RowWindow, dim: usize, dev: &DeviceSpec) -> CounterTrace {
        let mut c = CounterTrace::default();
        self.window_trace_into(w, dim, dev, &mut c);
        c
    }

    /// The single emitter behind both representations: each sub-phase
    /// records into the shared sink, separated by block-wide barriers, with
    /// its shared region allocated past the previous phase's: the sink's
    /// allocation cursor ([`alloc_shared`](TraceSink::alloc_shared)) hands
    /// each phase the words after the last one's, in event and counter
    /// mode alike.
    pub fn window_trace_into<S: TraceSink>(
        &self,
        w: &RowWindow,
        dim: usize,
        dev: &DeviceSpec,
        sink: &mut S,
    ) {
        let cuda = CudaSpmm::optimized();
        let tensor = TensorSpmm::optimized();
        let tile_k = Precision::Tf32.tile_k();
        let split = self.tile_split(w, tile_k);
        let mixed = split.is_mixed();

        // The merged block always runs at least the 8 warps the cost model
        // starts from; sub-phases with fewer warps leave the rest idle.
        sink.ensure_warps(8);
        if split.tensor_tiles > 0 {
            sink.record_all(WarpOp::Barrier);
            tensor.window_trace_into_impl(
                split.tensor_nnz,
                split.tensor_tiles * tile_k,
                w.rows,
                dim,
                dev,
                !mixed,
                sink,
            );
        }
        if split.cuda_nnz > 0 {
            sink.record_all(WarpOp::Barrier);
            cuda.window_trace_into(split.cuda_nnz, split.cuda_cols, w.rows, dim, dev, sink);
        }
        if mixed {
            sink.record_all(WarpOp::Barrier);
            self.merge_phase_into(w, dim, dev, sink);
        }
    }

    /// The result-merging pass of a mixed window: Tensor accumulators and
    /// CUDA partials spill into a Z-sized shared region, a barrier, then
    /// the read-back + add pass and the split-edge index stream.
    fn merge_phase_into<S: TraceSink>(
        &self,
        w: &RowWindow,
        dim: usize,
        dev: &DeviceSpec,
        sink: &mut S,
    ) {
        let nwarps = 8usize;
        let z_words = (w.rows * dim) as u64;
        let spill_ops = z_words.div_ceil(8) * 2;
        sink.ensure_warps(nwarps);
        // Each spill store covers a 4-word slice of the region.
        let base = sink.alloc_shared((spill_ops * 4) as u32);
        let mut turn = 0usize;
        let mut push = |sink: &mut S, op: WarpOp| {
            sink.record(turn % nwarps, op);
            turn += 1;
        };
        for i in 0..spill_ops {
            push(sink, WarpOp::shared_write(base + i as u32 * 4, 4));
        }
        sink.record_all(WarpOp::Barrier);
        for i in 0..spill_ops {
            push(sink, WarpOp::shared_read(base + i as u32 * 4, 4));
        }
        for _ in 0..z_words.div_ceil(32) {
            push(sink, WarpOp::Compute);
        }
        for _ in 0..coalesced_transactions(w.nnz as u64 * 4, dev.transaction_bytes) {
            push(
                sink,
                WarpOp::Global {
                    bytes: dev.transaction_bytes,
                },
            );
        }
    }
}

impl StraightforwardHybrid {
    /// Per-window block costs (tile_split + both path models) of the
    /// partition — per-window independent, evaluated on the pool with
    /// window order preserved. The timing half of
    /// [`spmm_with_partition`](StraightforwardHybrid::spmm_with_partition).
    pub fn partition_block_costs(
        &self,
        part: &RowWindowPartition,
        a: &Csr,
        dim: usize,
        dev: &DeviceSpec,
    ) -> Vec<BlockCost> {
        let cost_work = 2 * a.nnz() as u64 + part.len() as u64 * 64;
        hc_parallel::par_map(&part.windows, cost_work, |w| {
            (!w.is_empty()).then(|| self.window_cost(w, dim, dev))
        })
        .into_iter()
        .flatten()
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
        let blocks = self.partition_block_costs(part, a, x.cols, dev);
        let run = dev.execute(&blocks);
        SpmmResult {
            z: self.partition_numeric(part, a, x),
            run,
        }
    }

    /// Numerical result over a prebuilt partition: tiles with density ≥
    /// threshold are quantized (TF32), the rest exact — per entry, by its
    /// column's rank in the window. All ranking state is window-local, and
    /// windows tile the rows contiguously, so each pool worker owns its
    /// window's chunk of z.data exclusively (chunk index == window index).
    /// Split out so a cached plan can pair it with cached block costs.
    pub fn partition_numeric(
        &self,
        part: &RowWindowPartition,
        a: &Csr,
        x: &DenseMatrix,
    ) -> DenseMatrix {
        assert_operand_rows(a, x.rows);
        let tile_k = Precision::Tf32.tile_k();
        let mut z = DenseMatrix::zeros(a.nrows, x.cols);
        if a.nrows > 0 && x.cols > 0 {
            let cols = x.cols;
            let work = 2 * a.nnz() as u64 * cols as u64;
            let chunk = part.window_rows * cols;
            hc_parallel::par_chunks_mut(&mut z.data, chunk, work, |wi, zc| {
                let w = &part.windows[wi];
                if w.is_empty() {
                    return;
                }
                let col_counts = w.meta.col_counts();
                // Rank columns by density to find each column's tile.
                let mut order: Vec<usize> = (0..col_counts.len()).collect();
                order.sort_unstable_by(|&i, &j| col_counts[j].cmp(&col_counts[i]));
                let mut rank_of = vec![0usize; col_counts.len()];
                for (rank, &col) in order.iter().enumerate() {
                    rank_of[col] = rank;
                }
                let tile_of = |cond: usize| rank_of[cond] / tile_k;
                // Tile densities in rank order.
                let mut tile_fill = vec![0u32; col_counts.len().div_ceil(tile_k)];
                for (rank, &col) in order.iter().enumerate() {
                    tile_fill[rank / tile_k] += col_counts[col];
                }
                for r in w.start_row..w.start_row + w.rows {
                    let (s, e) = a.row_range(r);
                    let local = r - w.start_row;
                    let zrow = &mut zc[local * cols..(local + 1) * cols];
                    // Bitmap walk == this row's CSR entry order.
                    let conds = w.meta.row_cond_indices(local);
                    for (i, cond) in (s..e).zip(conds) {
                        let cond = cond as usize;
                        let t = tile_of(cond);
                        let p = if tile_fill[t] as f64 / (w.rows * tile_k) as f64
                            >= self.tile_density_threshold
                        {
                            Precision::Tf32
                        } else {
                            Precision::Fp32
                        };
                        p.axpy(zrow, p.quantize(a.vals[i]), x.row(a.col_idx[i] as usize));
                    }
                }
            });
        }
        z
    }
}

impl SpmmKernel for StraightforwardHybrid {
    fn name(&self) -> &'static str {
        "Per-tile hybrid"
    }

    fn spmm(&self, a: &Csr, x: &DenseMatrix, dev: &DeviceSpec) -> SpmmResult {
        self.spmm_with_partition(&RowWindowPartition::build(a), a, x, dev)
    }

    fn spmm_run(&self, a: &Csr, dim: usize, dev: &DeviceSpec) -> gpu_sim::KernelRun {
        let part = RowWindowPartition::build(a);
        dev.execute(&self.partition_block_costs(&part, a, dim, dev))
    }
}

fn merge_block(dst: &mut BlockCost, src: &BlockCost) {
    dst.cuda_fma_issues += src.cuda_fma_issues;
    dst.wmma_issues += src.wmma_issues;
    dst.dram.add(&src.dram);
    dst.prefetch.add(&src.prefetch);
    dst.shared.add(&src.shared);
    dst.warps = dst.warps.max(src.warps);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::HcSpmm;
    use graph_sparse::gen;

    #[test]
    fn numerics_match_reference_within_tf32() {
        let a = gen::community(512, 4_000, 16, 0.9, 1);
        let x = DenseMatrix::random_features(512, 32, 2);
        let dev = DeviceSpec::rtx3090();
        let r = StraightforwardHybrid::default().spmm(&a, &x, &dev);
        assert!(a.spmm_reference(&x).max_abs_diff(&r.z) < 0.05);
    }

    #[test]
    fn row_window_strategy_beats_per_tile_on_mixed_graphs() {
        // The §IV-A argument: merging overhead + split storage make the
        // fine-grained hybrid lose to the row-window unit.
        let dev = DeviceSpec::rtx3090();
        let a = gen::molecules(4_096, 10_000, 3);
        let x = DenseMatrix::random_features(4_096, 64, 4);
        let per_tile = StraightforwardHybrid::default()
            .spmm(&a, &x, &dev)
            .run
            .time_ms;
        let row_window = HcSpmm::default().spmm(&a, &x, &dev).run.time_ms;
        assert!(
            row_window < per_tile,
            "row-window {row_window} should beat per-tile {per_tile}"
        );
    }

    #[test]
    fn pure_windows_pay_no_merge_overhead() {
        // A window where every tile is dense (or every tile sparse) incurs
        // no merge pass: the block cost equals the single-path cost plus
        // nothing extra in shared memory.
        let dev = DeviceSpec::rtx3090();
        // All-dense tiny matrix → all tiles Tensor.
        let mut coo = graph_sparse::Coo::new(16, 8);
        for r in 0..16 {
            for c in 0..8 {
                coo.push(r, c, 1.0);
            }
        }
        let a = coo.to_csr();
        let x = DenseMatrix::random_features(8, 32, 5);
        let r = StraightforwardHybrid::default().spmm(&a, &x, &dev);
        let pure = TensorSpmm::optimized().spmm(&a, &x, &dev);
        assert!((r.run.time_ms - pure.run.time_ms).abs() / pure.run.time_ms < 0.05);
    }
}
