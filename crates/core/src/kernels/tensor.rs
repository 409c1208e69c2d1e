//! SpMM on Tensor cores — Algorithm 2 with the Algorithm 4 data-loading
//! optimization.
//!
//! One thread block processes one condensed row window. The window's
//! non-zero columns are traversed in 16×`tile_k` tiles; for each tile the A
//! fragment is converted from CSR into shared memory and the matching
//! `tile_k`×16 fragments of X are staged, then each warp issues WMMA
//! multiply-accumulates. Tensor cores cannot skip zeros inside a tile, so
//! the cost is tied to the *tile count* (≈ nnz_cols / tile_k), not to nnz —
//! flat in sparsity, linear in non-zero columns (Fig. 1).
//!
//! The §IV-D2 optimization has all warps of a block cooperatively load X
//! fragments with the Fig. 6 transposed layout, eliminating shared-memory
//! bank conflicts and hiding gather latency across warps; the plain kernel
//! loads per-warp with a conflicting layout.

use gpu_sim::trace::{BlockTrace, CounterTrace, TraceSink, WarpOp};
use gpu_sim::{coalesced_transactions, BlockCost, DeviceSpec, Precision};
use graph_sparse::{Csr, DenseMatrix, RowWindowPartition, TileMeta};

use super::{assert_operand_rows, numeric_rows, SpmmKernel, SpmmResult};

/// Tensor-core SpMM kernel.
#[derive(Debug, Clone, Copy)]
pub struct TensorSpmm {
    /// Input precision (TF32 in the paper's main experiments).
    pub precision: Precision,
    /// Cooperative, conflict-free X loading (Algorithm 4 / Fig. 6).
    pub optimized_loading: bool,
    /// Read A-fragment metadata in the compressed tile form (occupancy
    /// bitmaps + delta-coded column list) instead of per-entry condensed
    /// indices. Shrinks the metadata stream from ~6 bytes/entry to
    /// [`TileMeta::nominal_bytes`].
    pub compressed_meta: bool,
    /// Double-buffered `cp.async` staging: fragment `f+1`'s X strip is
    /// prefetched while fragment `f` runs its WMMA, removing the
    /// staging-load stall and one barrier per fragment. Only takes effect
    /// together with `optimized_loading` (the per-warp legacy layout has no
    /// async copy path).
    pub pipelined: bool,
}

impl Default for TensorSpmm {
    fn default() -> Self {
        TensorSpmm {
            precision: Precision::Tf32,
            optimized_loading: true,
            compressed_meta: true,
            pipelined: true,
        }
    }
}

impl TensorSpmm {
    /// The deployed configuration.
    pub fn optimized() -> Self {
        Self::default()
    }

    /// Algorithm 2 without the data-loading strategy (ablation baseline).
    pub fn unoptimized() -> Self {
        TensorSpmm {
            optimized_loading: false,
            pipelined: false,
            ..Self::default()
        }
    }

    /// The pre-compression cost model: per-entry condensed-index metadata,
    /// synchronous staging. Reproduces this kernel's historical costs
    /// bit-for-bit — the baseline of the `ext_tile_compress` experiment.
    pub fn uncompressed_unpipelined() -> Self {
        TensorSpmm {
            compressed_meta: false,
            pipelined: false,
            ..Self::default()
        }
    }

    /// Bytes of A-side data one window's conversion phase streams in:
    /// values plus either the compressed tile metadata or the legacy
    /// per-entry condensed indices (colIdx u32 + row-in-window u16).
    fn a_stream_bytes(&self, nnz: usize, nnz_cols: usize, rows: usize) -> u64 {
        let eb = self.precision.storage_bytes();
        if self.compressed_meta {
            nnz as u64 * eb + TileMeta::nominal_bytes(nnz_cols, rows) as u64
        } else {
            nnz as u64 * (6 + eb)
        }
    }

    /// With a specific precision (Appendix B).
    pub fn with_precision(precision: Precision) -> Self {
        TensorSpmm {
            precision,
            ..Self::default()
        }
    }

    /// Cost of one condensed row window processed as a thread block.
    pub fn window_block_cost(
        &self,
        nnz: usize,
        nnz_cols: usize,
        rows: usize,
        dim: usize,
        dev: &DeviceSpec,
    ) -> BlockCost {
        let tile_k = self.precision.tile_k();
        let tiles = nnz_cols.div_ceil(tile_k);
        // Each warp owns one 16-wide slice of the dense dimension for the
        // MMA phase (Fig. 5b), but the block always runs 8 warps so that the
        // cooperative loading of Algorithm 4 can spread gathers across all
        // of them.
        let dim_chunks = dim.div_ceil(16);
        let mut b = BlockCost {
            warps: 8,
            ..Default::default()
        };
        if tiles == 0 {
            return b;
        }

        // -- A-fragment conversion: the A stream (values + metadata, see
        // [`a_stream_bytes`](TensorSpmm::a_stream_bytes)) is read once,
        // coalesced, and scattered into the shared tile; scattered
        // single-lane stores serialize modestly.
        let a_bytes = self.a_stream_bytes(nnz, nnz_cols, rows);
        b.dram.transactions += coalesced_transactions(a_bytes, dev.transaction_bytes);
        b.dram.bytes_loaded += a_bytes;
        b.shared.stores += (nnz as u64).div_ceil(dev.warp_size as u64);
        if dim_chunks == 0 {
            // A zero-width X: no fragment to stage, no WMMA to issue and no
            // result to store.
            return b;
        }

        // -- X fragments: per (tile, dim chunk) a tile_k×16 block of X is
        // staged. Each of its tile_k rows is a contiguous strip (64 bytes at
        // 4-byte precisions) — one transaction per row.
        let eb = self.precision.storage_bytes();
        let fragments = (tiles * dim_chunks) as u64;
        let frag_rows = tile_k as u64;
        let frag_bytes = tile_k as u64 * 16 * eb;
        // Distinct X rows = the condensed columns; each contributes its full
        // `dim` elements across the chunked fragments.
        let x_bytes = (nnz_cols * dim) as u64 * eb;
        // Staging stores: 32 lanes × 4 bytes per store step.
        let frag_stores_each = frag_bytes.div_ceil(dev.warp_size as u64 * 4);
        if self.pipelined && self.optimized_loading {
            // Double-buffered: only fragment 0 is a demand load staged
            // through shared stores; fragments 1.. stream in as `cp.async`
            // prefetches that overlap the previous fragment's WMMA and land
            // in the alternate buffer without store instructions.
            b.dram.transactions += frag_rows;
            let demand_x = x_bytes / fragments;
            b.dram.bytes_loaded += demand_x;
            b.prefetch.transactions += (fragments - 1) * frag_rows;
            b.prefetch.bytes_loaded += x_bytes - demand_x;
            b.shared.stores += frag_stores_each;
        } else {
            b.dram.transactions += fragments * frag_rows;
            b.dram.bytes_loaded += x_bytes;
            b.shared.stores += fragments * frag_stores_each;
            if !self.optimized_loading {
                // Per-warp loading: each fragment row is fetched by a quarter
                // warp with partial 32-byte sectors (⅓ wasted traffic and 50 %
                // more transactions), and the untransposed layout causes 4-way
                // bank conflicts on every store step (Fig. 6's pathology).
                b.dram.bytes_loaded += (nnz_cols * dim) as u64 * eb / 3;
                b.dram.transactions += fragments * frag_rows / 2;
                b.shared.bank_conflicts += fragments * frag_stores_each * 3;
            }
        }

        // -- WMMA issues: one per (tile, dim chunk), plus the two fragment
        // loads from shared memory each issue performs.
        b.wmma_issues = fragments;
        b.shared.loads += fragments * 2;

        // -- Result: accumulated in register fragments, stored once.
        b.dram.bytes_stored += (rows * dim) as u64 * 4;
        b.dram.transactions +=
            rows as u64 * coalesced_transactions(dim as u64 * 4, dev.transaction_bytes);
        b
    }

    /// Sanitizer-grade per-warp trace of one condensed window, mirroring
    /// [`window_block_cost`](TensorSpmm::window_block_cost) term by term:
    /// A-fragment conversion into a shared tile region, then per (tile,
    /// dim-chunk) fragment a cooperative X staging pass into a reused
    /// buffer, a barrier, the owning warp's two fragment loads and WMMA
    /// issue, and a closing barrier before the buffer is overwritten.
    pub fn window_trace(
        &self,
        nnz: usize,
        nnz_cols: usize,
        rows: usize,
        dim: usize,
        dev: &DeviceSpec,
    ) -> BlockTrace {
        let mut t = BlockTrace::default();
        self.window_trace_into(nnz, nnz_cols, rows, dim, dev, &mut t);
        t
    }

    /// Counter-mode view of [`window_trace`](TensorSpmm::window_trace): the
    /// same emitter, accumulating counters instead of event vectors.
    pub fn window_counters(
        &self,
        nnz: usize,
        nnz_cols: usize,
        rows: usize,
        dim: usize,
        dev: &DeviceSpec,
    ) -> CounterTrace {
        let mut c = CounterTrace::default();
        self.window_trace_into(nnz, nnz_cols, rows, dim, dev, &mut c);
        c
    }

    /// The single emitter behind both representations, generic over the
    /// [`TraceSink`].
    pub fn window_trace_into<S: TraceSink>(
        &self,
        nnz: usize,
        nnz_cols: usize,
        rows: usize,
        dim: usize,
        dev: &DeviceSpec,
        sink: &mut S,
    ) {
        self.window_trace_into_impl(nnz, nnz_cols, rows, dim, dev, true, sink);
    }

    /// Emitter with the Z store made optional: the per-tile hybrid merges a
    /// Tensor part and a CUDA part over the same output rows and stores Z
    /// exactly once, so its Tensor sub-phase must omit the store (matching
    /// the transaction subtraction in its cost merge).
    #[allow(clippy::too_many_arguments)] // window shape + device + mode; private plumbing
    pub(crate) fn window_trace_into_impl<S: TraceSink>(
        &self,
        nnz: usize,
        nnz_cols: usize,
        rows: usize,
        dim: usize,
        dev: &DeviceSpec,
        z_store: bool,
        sink: &mut S,
    ) {
        let tile_k = self.precision.tile_k();
        let tiles = nnz_cols.div_ceil(tile_k);
        let dim_chunks = dim.div_ceil(16);
        let nwarps = 8usize;
        sink.ensure_warps(nwarps);
        if tiles == 0 {
            return;
        }
        let pipelined = self.pipelined && self.optimized_loading;
        let eb = self.precision.storage_bytes();
        let fragments = (tiles * dim_chunks) as u64;
        let frag_rows = tile_k as u64;
        let frag_bytes = tile_k as u64 * 16 * eb;
        let frag_stores_each = frag_bytes.div_ceil(dev.warp_size as u64 * 4);
        // Shared layout: [A tile region | X staging buffer(s)]; the
        // synchronous kernel reuses one X buffer fenced by barriers, the
        // pipelined kernel double-buffers so prefetches for fragment f+1
        // land while fragment f is consumed.
        let a_stores = (nnz as u64).div_ceil(dev.warp_size as u64);
        let a_words = (a_stores as u32).max(1) * 32;
        let x_words = frag_stores_each as u32 * 32;
        let a_base = sink.alloc_shared(a_words);
        let x_base = sink.alloc_shared(if pipelined { 2 * x_words } else { x_words });
        let xb = |f: u64| x_base + (f % 2) as u32 * x_words * pipelined as u32;
        // Replays billed per staging store step by the unoptimized layout
        // (Fig. 6's 4-way pathology).
        let store_conflicts = if self.optimized_loading { 0 } else { 3 };

        let mut turn = 0usize;
        let mut push = |sink: &mut S, op: WarpOp| {
            sink.record(turn % nwarps, op);
            turn += 1;
        };

        // -- A-fragment conversion: coalesced loads of the A stream
        // (values + compressed or legacy metadata), scattered single-lane
        // stores into the tile region.
        let a_loads = coalesced_transactions(
            self.a_stream_bytes(nnz, nnz_cols, rows),
            dev.transaction_bytes,
        );
        for _ in 0..a_loads {
            push(
                sink,
                WarpOp::Global {
                    bytes: dev.transaction_bytes,
                },
            );
        }
        for i in 0..a_stores {
            push(
                sink,
                WarpOp::shared_write(a_base + i as u32 * 32 % a_words, 32),
            );
        }
        sink.record_all(WarpOp::Barrier);

        // -- Per-fragment staging + MMA. The unoptimized kernel also pays
        // extra partial-sector gathers (fragments*frag_rows/2 in total),
        // spread one batch per fragment with the remainder up front.
        let extra_gathers = if self.optimized_loading {
            0
        } else {
            fragments * frag_rows / 2
        };
        let mut extra_left = extra_gathers;
        let frag_read_words = ((frag_bytes / 4) as u32).clamp(1, x_words);
        if pipelined && fragments > 0 {
            // Fragment 0 is the only synchronous stage: demand strip loads
            // stored into buffer 0 behind a barrier. A zero-width X has no
            // fragment 0.
            for _ in 0..frag_rows {
                push(sink, WarpOp::Global { bytes: 64 });
            }
            for s in 0..frag_stores_each {
                push(sink, WarpOp::shared_write(xb(0) + s as u32 * 32, 32));
            }
            sink.record_all(WarpOp::Barrier);
        }
        for f in 0..fragments {
            let chunk = (f as usize) % dim_chunks;
            if pipelined {
                // Steady state: prefetch fragment f+1 into the other buffer
                // (async — no store ops, the copy lands directly) while the
                // owning warp consumes fragment f.
                if f + 1 < fragments {
                    for _ in 0..frag_rows {
                        push(sink, WarpOp::Prefetch { bytes: 64 });
                    }
                }
            } else {
                for _ in 0..frag_rows {
                    push(sink, WarpOp::Global { bytes: 64 });
                }
                let batch = extra_left.div_ceil(fragments - f);
                for _ in 0..batch {
                    push(sink, WarpOp::Global { bytes: 32 });
                }
                extra_left -= batch;
                for s in 0..frag_stores_each {
                    push(
                        sink,
                        WarpOp::shared_access(
                            gpu_sim::AccessKind::Write,
                            x_base + s as u32 * 32,
                            32,
                            store_conflicts,
                        ),
                    );
                }
                sink.record_all(WarpOp::Barrier);
            }
            // Owning warp (Fig. 5b): two fragment loads, one WMMA.
            let w = chunk % nwarps;
            let tile_slice = (f / dim_chunks as u64 * 32 % a_words as u64) as u32;
            sink.record(
                w,
                WarpOp::shared_read(a_base + tile_slice.min(a_words - 32), 32),
            );
            sink.record(w, WarpOp::shared_read(xb(f), frag_read_words));
            sink.record(w, WarpOp::Wmma);
            sink.record_all(WarpOp::Barrier); // fence before buffer reuse
        }

        // -- Result store, coalesced, once per output row.
        if z_store {
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
}

impl TensorSpmm {
    /// SpMM against a prebuilt row-window partition of `a` — the reusable
    /// half of [`spmm`](SpmmKernel::spmm), split out so a cached serving
    /// plan can amortize the partition build across requests. `part` must
    /// have been built from a matrix with `a`'s structure.
    /// Per-window block costs of the partition (empty windows launch no
    /// block; survivors keep window order) — the timing half of
    /// [`spmm_with_partition`](TensorSpmm::spmm_with_partition).
    pub fn partition_block_costs(
        &self,
        part: &RowWindowPartition,
        dim: usize,
        dev: &DeviceSpec,
    ) -> Vec<BlockCost> {
        hc_parallel::par_map(&part.windows, part.len() as u64 * 64, |w| {
            (!w.is_empty()).then(|| self.window_block_cost(w.nnz, w.nnz_cols(), w.rows, dim, dev))
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
        let blocks = self.partition_block_costs(part, x.cols, dev);
        let run = dev.execute(&blocks);
        SpmmResult {
            z: self.partition_numeric(part, a, x),
            run,
        }
    }

    /// Numerical result over a prebuilt partition, at this kernel's
    /// precision: inputs are quantized, products accumulate in f32 — the
    /// WMMA contract. Windows tile the rows contiguously, so chunking
    /// z.data by window_rows·cols makes chunk index == window index and
    /// each worker owns its window's output exclusively. Split out so a
    /// cached plan can pair it with cached block costs.
    pub fn partition_numeric(
        &self,
        part: &RowWindowPartition,
        a: &Csr,
        x: &DenseMatrix,
    ) -> DenseMatrix {
        assert_operand_rows(a, x.rows);
        let mut z = DenseMatrix::zeros(a.nrows, x.cols);
        if a.nrows > 0 && x.cols > 0 {
            let work = 2 * a.nnz() as u64 * x.cols as u64;
            let chunk = part.window_rows * x.cols;
            hc_parallel::par_chunks_mut(&mut z.data, chunk, work, |wi, zc| {
                let w = &part.windows[wi];
                if !w.is_empty() {
                    let rows = w.start_row..w.start_row + w.rows;
                    numeric_rows(self.precision, a, rows, x, zc);
                }
            });
        }
        z
    }
}

impl SpmmKernel for TensorSpmm {
    fn name(&self) -> &'static str {
        "HC-Tensor"
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
    fn fp32_mode_is_exact() {
        let a = gen::erdos_renyi(80, 240, 1);
        let x = DenseMatrix::random_features(80, 32, 2);
        let dev = DeviceSpec::rtx3090();
        let r = TensorSpmm::with_precision(Precision::Fp32).spmm(&a, &x, &dev);
        assert_matches_reference(&a, &x, &r.z, 0.0);
    }

    #[test]
    fn tf32_mode_is_close() {
        let a = gen::community(128, 600, 8, 0.9, 3);
        let x = DenseMatrix::random_features(128, 32, 4);
        let dev = DeviceSpec::rtx3090();
        let r = TensorSpmm::optimized().spmm(&a, &x, &dev);
        // ~1e-3 relative error from 10-bit mantissas on |v|≤1 data with
        // small reductions.
        assert_matches_reference(&a, &x, &r.z, 0.05);
        // And it is not bit-exact (quantization really happened).
        let want = a.spmm_reference(&x);
        assert!(want.max_abs_diff(&r.z) > 0.0);
    }

    #[test]
    fn time_flat_in_sparsity_at_fixed_cols() {
        // Fig. 1(a): tensor time is stable as sparsity varies.
        let dev = DeviceSpec::rtx3090();
        let x = DenseMatrix::random_features(32, 32, 5);
        let k = TensorSpmm::optimized();
        let dense = gen::training_window(16, 32, 480, 6);
        let sparse = gen::training_window(16, 32, 40, 6);
        let td = k.spmm(&dense, &x, &dev).run.time_ms;
        let ts = k.spmm(&sparse, &x, &dev).run.time_ms;
        assert!(
            (td - ts).abs() / td < 0.15,
            "tensor time should be ~flat: dense {td}, sparse {ts}"
        );
    }

    #[test]
    fn time_grows_with_nnz_cols() {
        // Fig. 1(b): more non-zero columns → more tiles → slower.
        let dev = DeviceSpec::rtx3090();
        let k = TensorSpmm::optimized();
        let narrow = gen::training_window(16, 16, 64, 7);
        let wide = gen::training_window(16, 128, 512, 7);
        let xn = DenseMatrix::random_features(16, 32, 8);
        let xw = DenseMatrix::random_features(128, 32, 8);
        // Compare SM cycles: wall time would be dominated by the fixed
        // launch overhead at this tiny scale.
        let tn = k.spmm(&narrow, &xn, &dev).run.makespan_cycles;
        let tw = k.spmm(&wide, &xw, &dev).run.makespan_cycles;
        assert!(tw > 2.0 * tn, "wide {tw} should be ≫ narrow {tn}");
    }

    #[test]
    fn optimized_loading_wins() {
        let dev = DeviceSpec::rtx3090();
        let a = gen::community(512, 4000, 16, 0.9, 9);
        let x = DenseMatrix::random_features(512, 64, 10);
        let t_opt = TensorSpmm::optimized().spmm(&a, &x, &dev).run.time_ms;
        let t_plain = TensorSpmm::unoptimized().spmm(&a, &x, &dev).run.time_ms;
        assert!(t_opt < t_plain);
        // Optimized path is conflict-free.
        let r = TensorSpmm::optimized().spmm(&a, &x, &dev);
        assert_eq!(r.run.profile.bank_conflicts, 0);
    }

    #[test]
    fn half_and_bfloat_have_coarser_tiles() {
        let dev = DeviceSpec::rtx3090();
        let half = TensorSpmm::with_precision(Precision::Fp16);
        let tf = TensorSpmm::optimized();
        // 9 non-zero columns: 2 tiles at k=8, 1 tile at k=16.
        let bh = half.window_block_cost(20, 9, 16, 32, &dev);
        let bt = tf.window_block_cost(20, 9, 16, 32, &dev);
        assert_eq!(bh.wmma_issues, 2); // 1 tile × 2 dim chunks
        assert_eq!(bt.wmma_issues, 4); // 2 tiles × 2 dim chunks
    }

    #[test]
    fn empty_window_is_free() {
        let dev = DeviceSpec::rtx3090();
        let b = TensorSpmm::optimized().window_block_cost(0, 0, 16, 32, &dev);
        assert_eq!(b.wmma_issues, 0);
        assert_eq!(b.dram.transactions, 0);
    }
}
