//! HC-SpMM — the hybrid kernel (§IV).
//!
//! Row windows are the hybrid unit (§IV-A): each window is dispatched whole
//! to either the CUDA-core path or the Tensor-core path according to the
//! selector's classification, inside a *single* kernel launch. Because a
//! window's result rows are produced entirely by one core type, no result
//! merging between cores is ever needed.

use gpu_sim::trace::{BlockTrace, CounterTrace, TraceSink};
use gpu_sim::{BlockCost, DeviceSpec, Precision};
use graph_sparse::{Csr, DenseMatrix, RowWindow};

use super::cuda::CudaSpmm;
use super::tensor::TensorSpmm;
use super::{assert_operand_rows, numeric_rows, SpmmKernel, SpmmResult};
use crate::preprocess::{preprocess, preprocess_oracle, Preprocessed};
use crate::selector::{CoreChoice, SelectionPolicy, Selector};

/// The HC-SpMM hybrid kernel.
///
/// ```
/// use gpu_sim::DeviceSpec;
/// use graph_sparse::{gen, DenseMatrix};
/// use hc_core::{HcSpmm, SpmmKernel};
///
/// let graph = gen::community(256, 1_500, 8, 0.9, 1);
/// let x = DenseMatrix::random_features(256, 32, 2);
/// let dev = DeviceSpec::rtx3090();
///
/// let hc = HcSpmm::default();
/// let pre = hc.preprocess(&graph, &dev);      // condense + classify, once
/// let out = hc.spmm_preprocessed(&pre, &graph, &x, &dev);
/// assert!(out.run.time_ms > 0.0);
/// assert!(graph.spmm_reference(&x).max_abs_diff(&out.z) < 0.05);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct HcSpmm {
    /// Core-selection model.
    pub selector: Selector,
    /// CUDA-core path configuration.
    pub cuda: CudaSpmm,
    /// Tensor-core path configuration.
    pub tensor: TensorSpmm,
}

impl Default for HcSpmm {
    fn default() -> Self {
        HcSpmm {
            selector: Selector::DEFAULT,
            cuda: CudaSpmm::optimized(),
            tensor: TensorSpmm::optimized(),
        }
    }
}

impl HcSpmm {
    /// Hybrid kernel with a specific operand precision on both paths
    /// (Appendix B).
    pub fn with_precision(p: Precision) -> Self {
        HcSpmm {
            tensor: TensorSpmm::with_precision(p),
            cuda: CudaSpmm::with_precision(p),
            ..Self::default()
        }
    }

    /// Run the preprocessing kernel (condense + classify). Its cost is
    /// reported separately, per the paper's measurement protocol.
    pub fn preprocess(&self, a: &Csr, dev: &DeviceSpec) -> Preprocessed {
        preprocess(a, &self.selector, dev)
    }

    /// Preprocess under an explicit [`SelectionPolicy`] — the trained model,
    /// a fixed single-core policy, or the per-window cost oracle (`dim` is
    /// needed by the oracle's cost evaluation).
    pub fn preprocess_with_policy(
        &self,
        a: &Csr,
        dim: usize,
        policy: SelectionPolicy,
        dev: &DeviceSpec,
    ) -> Preprocessed {
        match policy {
            SelectionPolicy::Model => self.preprocess(a, dev),
            SelectionPolicy::AllCuda => {
                let mut pre = self.preprocess(a, dev);
                pre.choices.iter_mut().for_each(|c| *c = CoreChoice::Cuda);
                pre
            }
            SelectionPolicy::AllTensor => {
                let mut pre = self.preprocess(a, dev);
                pre.choices.iter_mut().for_each(|c| *c = CoreChoice::Tensor);
                pre
            }
            SelectionPolicy::Oracle => preprocess_oracle(a, dim, dev),
        }
    }

    /// Execute SpMM given preprocessing artifacts. One launch; each window
    /// runs on its assigned core type.
    pub fn spmm_preprocessed(
        &self,
        pre: &Preprocessed,
        a: &Csr,
        x: &DenseMatrix,
        dev: &DeviceSpec,
    ) -> SpmmResult {
        let run = self.spmm_preprocessed_run(pre, x.cols, dev);
        let z = self.numeric(pre, a, x);
        SpmmResult { z, run }
    }

    /// Timing-only [`spmm_preprocessed`](HcSpmm::spmm_preprocessed) for a
    /// `dim`-wide X: the same run record, with nothing computed.
    pub fn spmm_preprocessed_run(
        &self,
        pre: &Preprocessed,
        dim: usize,
        dev: &DeviceSpec,
    ) -> gpu_sim::KernelRun {
        dev.execute(&self.block_costs(pre, dim, dev))
    }

    /// Per-window block costs under the current assignment (used by the
    /// fusion kernel too). Evaluated per window on the pool; empty windows
    /// launch no block and the survivors keep window order.
    pub fn block_costs(&self, pre: &Preprocessed, dim: usize, dev: &DeviceSpec) -> Vec<BlockCost> {
        let n = pre.partition.len();
        hc_parallel::par_map_indexed(n, n as u64 * 64, |wi| {
            let w = &pre.partition.windows[wi];
            if w.is_empty() {
                return None;
            }
            Some(match pre.choices[wi] {
                CoreChoice::Cuda => {
                    self.cuda
                        .window_block_cost(w.nnz, w.nnz_cols(), w.rows, dim, dev)
                }
                CoreChoice::Tensor => {
                    self.tensor
                        .window_block_cost(w.nnz, w.nnz_cols(), w.rows, dim, dev)
                }
            })
        })
        .into_iter()
        .flatten()
        .collect()
    }

    /// Cost of one window on its assigned core type.
    pub fn window_cost(
        &self,
        w: &RowWindow,
        choice: CoreChoice,
        dim: usize,
        dev: &DeviceSpec,
    ) -> BlockCost {
        match choice {
            CoreChoice::Cuda => self
                .cuda
                .window_block_cost(w.nnz, w.nnz_cols(), w.rows, dim, dev),
            CoreChoice::Tensor => {
                self.tensor
                    .window_block_cost(w.nnz, w.nnz_cols(), w.rows, dim, dev)
            }
        }
    }

    /// Sanitizer-grade trace of one window on its assigned core type. A
    /// window runs entirely on one core type (the §IV-A row-window unit),
    /// so the hybrid kernel's trace is exactly the chosen path's trace —
    /// no cross-core merge phase can ever appear here.
    pub fn window_trace(
        &self,
        w: &RowWindow,
        choice: CoreChoice,
        dim: usize,
        dev: &DeviceSpec,
    ) -> BlockTrace {
        let mut t = BlockTrace::default();
        self.window_trace_into(w, choice, dim, dev, &mut t);
        t
    }

    /// Counter-mode view of [`window_trace`](HcSpmm::window_trace): the
    /// chosen path's emitter, accumulating counters instead of events.
    pub fn window_counters(
        &self,
        w: &RowWindow,
        choice: CoreChoice,
        dim: usize,
        dev: &DeviceSpec,
    ) -> CounterTrace {
        let mut c = CounterTrace::default();
        self.window_trace_into(w, choice, dim, dev, &mut c);
        c
    }

    /// The chosen path's emitter, generic over the [`TraceSink`].
    pub fn window_trace_into<S: TraceSink>(
        &self,
        w: &RowWindow,
        choice: CoreChoice,
        dim: usize,
        dev: &DeviceSpec,
        sink: &mut S,
    ) {
        match choice {
            CoreChoice::Cuda => {
                self.cuda
                    .window_trace_into(w.nnz, w.nnz_cols(), w.rows, dim, dev, sink)
            }
            CoreChoice::Tensor => {
                self.tensor
                    .window_trace_into(w.nnz, w.nnz_cols(), w.rows, dim, dev, sink)
            }
        }
    }

    /// Numerical result under the current assignment: each window computes
    /// at its assigned path's precision — `self.cuda.precision` on CUDA
    /// windows (exact f32 by default; [`HcSpmm::with_precision`] sets it
    /// too), `self.tensor.precision` on Tensor windows.
    /// Windows tile the rows contiguously, so chunking `z.data` by
    /// `window_rows · cols` gives each pool worker exclusive ownership of
    /// its window's output rows — results are bit-identical to the serial
    /// window loop at any thread count.
    pub fn numeric(&self, pre: &Preprocessed, a: &Csr, x: &DenseMatrix) -> DenseMatrix {
        assert_operand_rows(a, x.rows);
        let mut z = DenseMatrix::zeros(a.nrows, x.cols);
        if a.nrows == 0 || x.cols == 0 {
            return z;
        }
        let chunk = pre.partition.window_rows * x.cols;
        let work = 2 * a.nnz() as u64 * x.cols as u64;
        hc_parallel::par_chunks_mut(&mut z.data, chunk, work, |wi, zc| {
            let w = &pre.partition.windows[wi];
            if w.is_empty() {
                return;
            }
            let p = match pre.choices[wi] {
                CoreChoice::Cuda => self.cuda.precision,
                CoreChoice::Tensor => self.tensor.precision,
            };
            numeric_rows(p, a, w.start_row..w.start_row + w.rows, x, zc);
        });
        z
    }

    /// Future-work mode (Appendix H): execute the CUDA-window and
    /// Tensor-window block families concurrently on an SM partition instead
    /// of interleaved in one stream.
    pub fn spmm_concurrent(
        &self,
        pre: &Preprocessed,
        a: &Csr,
        x: &DenseMatrix,
        dev: &DeviceSpec,
    ) -> SpmmResult {
        let mut cuda_blocks = Vec::new();
        let mut tensor_blocks = Vec::new();
        for (w, choice) in pre.partition.windows.iter().zip(&pre.choices) {
            if w.is_empty() {
                continue;
            }
            match choice {
                CoreChoice::Cuda => cuda_blocks.push(self.cuda.window_block_cost(
                    w.nnz,
                    w.nnz_cols(),
                    w.rows,
                    x.cols,
                    dev,
                )),
                CoreChoice::Tensor => tensor_blocks.push(self.tensor.window_block_cost(
                    w.nnz,
                    w.nnz_cols(),
                    w.rows,
                    x.cols,
                    dev,
                )),
            }
        }
        let run = dev.execute_concurrent(&cuda_blocks, &tensor_blocks);
        SpmmResult {
            z: self.numeric(pre, a, x),
            run,
        }
    }

    /// Simulated execution time split by core type `(cuda_ms, tensor_ms)` —
    /// the Table XIV quantity. Each side is timed as if launched alone,
    /// without launch overhead.
    pub fn per_core_time(&self, pre: &Preprocessed, dim: usize, dev: &DeviceSpec) -> (f64, f64) {
        let mut cuda_blocks = Vec::new();
        let mut tensor_blocks = Vec::new();
        for (w, choice) in pre.partition.windows.iter().zip(&pre.choices) {
            if w.is_empty() {
                continue;
            }
            match choice {
                CoreChoice::Cuda => cuda_blocks.push(self.cuda.window_block_cost(
                    w.nnz,
                    w.nnz_cols(),
                    w.rows,
                    dim,
                    dev,
                )),
                CoreChoice::Tensor => tensor_blocks.push(self.tensor.window_block_cost(
                    w.nnz,
                    w.nnz_cols(),
                    w.rows,
                    dim,
                    dev,
                )),
            }
        }
        let launch = dev.launch_overhead_us * 1e-3;
        let t = |blocks: &[BlockCost]| {
            if blocks.is_empty() {
                0.0
            } else {
                dev.execute(blocks).time_ms - launch
            }
        };
        (t(&cuda_blocks), t(&tensor_blocks))
    }
}

impl SpmmKernel for HcSpmm {
    fn name(&self) -> &'static str {
        "HC-SpMM"
    }

    fn spmm(&self, a: &Csr, x: &DenseMatrix, dev: &DeviceSpec) -> SpmmResult {
        let pre = self.preprocess(a, dev);
        self.spmm_preprocessed(&pre, a, x, dev)
    }

    fn spmm_run(&self, a: &Csr, dim: usize, dev: &DeviceSpec) -> gpu_sim::KernelRun {
        self.spmm_preprocessed_run(&self.preprocess(a, dev), dim, dev)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graph_sparse::gen;

    #[test]
    fn hybrid_result_matches_reference_within_tf32() {
        let a = gen::community(512, 4000, 16, 0.9, 1);
        let x = DenseMatrix::random_features(512, 32, 2);
        let dev = DeviceSpec::rtx3090();
        let r = HcSpmm::default().spmm(&a, &x, &dev);
        let want = a.spmm_reference(&x);
        assert!(want.max_abs_diff(&r.z) < 0.05);
    }

    #[test]
    fn fp32_hybrid_is_exact() {
        let a = gen::barabasi_albert(300, 4, 3);
        let x = DenseMatrix::random_features(300, 48, 4);
        let dev = DeviceSpec::rtx3090();
        let r = HcSpmm::with_precision(Precision::Fp32).spmm(&a, &x, &dev);
        assert_eq!(a.spmm_reference(&x).max_abs_diff(&r.z), 0.0);
    }

    #[test]
    fn hybrid_no_slower_than_both_pure_paths() {
        // The selector picks per window, so the hybrid kernel should not
        // lose to running everything on a single core type (modulo ties).
        let dev = DeviceSpec::rtx3090();
        // Mixed-density graph: dense communities + sparse periphery.
        let a = gen::community(2048, 16_000, 64, 0.9, 5);
        let x = DenseMatrix::random_features(2048, 32, 6);
        let h = HcSpmm::default();
        let pre = h.preprocess(&a, &dev);
        let t_hybrid = h.spmm_preprocessed(&pre, &a, &x, &dev).run.time_ms;
        let t_cuda = CudaSpmm::optimized().spmm(&a, &x, &dev).run.time_ms;
        let t_tensor = TensorSpmm::optimized().spmm(&a, &x, &dev).run.time_ms;
        assert!(
            t_hybrid <= t_cuda * 1.02 && t_hybrid <= t_tensor * 1.02,
            "hybrid {t_hybrid} vs cuda {t_cuda} vs tensor {t_tensor}"
        );
    }

    #[test]
    fn per_core_times_cover_all_windows() {
        let dev = DeviceSpec::rtx3090();
        let a = gen::community(1024, 8000, 32, 0.9, 7);
        let h = HcSpmm::default();
        let pre = h.preprocess(&a, &dev);
        let (tc, tt) = h.per_core_time(&pre, 32, &dev);
        let (nc, nt) = pre.window_split();
        if nc > 0 {
            assert!(tc > 0.0);
        }
        if nt > 0 {
            assert!(tt > 0.0);
        }
    }

    #[test]
    fn selection_policies_behave_as_named() {
        let dev = DeviceSpec::rtx3090();
        let a = gen::molecules(512, 1_200, 7);
        let x = DenseMatrix::random_features(512, 32, 8);
        let hc = HcSpmm::default();
        use crate::selector::SelectionPolicy as P;
        let time = |p: P| {
            let pre = hc.preprocess_with_policy(&a, 32, p, &dev);
            hc.spmm_preprocessed(&pre, &a, &x, &dev).run.time_ms
        };
        let (model, cuda, tensor, oracle) = (
            time(P::Model),
            time(P::AllCuda),
            time(P::AllTensor),
            time(P::Oracle),
        );
        assert!(oracle <= model * 1.0001);
        assert!(oracle <= cuda * 1.0001);
        assert!(oracle <= tensor * 1.0001);
        // The fixed policies really are single-core.
        let pre = hc.preprocess_with_policy(&a, 32, P::AllCuda, &dev);
        assert!(pre.choices.iter().all(|c| *c == CoreChoice::Cuda));
    }

    #[test]
    fn single_launch_overhead() {
        let dev = DeviceSpec::rtx3090();
        let a = gen::erdos_renyi(256, 1000, 9);
        let x = DenseMatrix::random_features(256, 32, 10);
        let r = HcSpmm::default().spmm(&a, &x, &dev);
        assert_eq!(r.run.profile.launches, 1);
    }
}
