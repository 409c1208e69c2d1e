//! Reusable execution plans: preprocessing artifacts packaged for caching.
//!
//! HC-SpMM's preprocessing (window condensing, selector classification,
//! optionally the LOA relayout) costs ≈13× one SpMM execution (Appendix F)
//! and is worth paying only when amortized over many invocations — GNN
//! epochs in the paper, repeated serving traffic here. A [`Plan`] is the
//! complete set of those artifacts for one graph *structure* and one
//! kernel configuration: prepared once, executed against any request whose
//! graph shares the structure (values are free to differ — the plan gathers
//! them per request).
//!
//! Everything a plan stores is a pure function of the CSR structure, which
//! is why the serving layer can key plans by [`StructureFingerprint`].

use std::collections::BTreeSet;
use std::fmt;
use std::time::Instant;

use gpu_sim::{BlockCost, DeviceSpec, KernelRun};
use graph_sparse::{
    Csr, DeltaCsr, DeltaError, DenseMatrix, FingerprintState, RowWindow, StructureFingerprint,
};

use crate::features::WindowFeatures;
use crate::kernels::{assert_operand_rows, SpmmResult};
use crate::loa::Loa;
use crate::preprocess::{window_preprocess_cost, Preprocessed};
use crate::sanitize::KernelFamily;
use crate::workspace::{Workspace, WorkspaceStats};
use crate::{HcSpmm, StraightforwardHybrid};

/// What to prepare: the kernel family that will execute requests and
/// whether to run the LOA relayout first (square matrices only).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanSpec {
    /// Kernel family executing the plan's requests.
    pub family: KernelFamily,
    /// Run LOA (Algorithms 5/6) at prepare time and execute against the
    /// optimized layout; results are mapped back to the original vertex
    /// order.
    pub use_loa: bool,
}

impl PlanSpec {
    /// The deployed configuration: the hybrid kernel, no relayout.
    pub fn hybrid() -> PlanSpec {
        PlanSpec {
            family: KernelFamily::Hybrid,
            use_loa: false,
        }
    }
}

/// Why [`Plan::patch`] refused to derive a patched plan. Typed, never a
/// panic: the serving layer maps these to a full re-prepare or a request
/// failure.
#[derive(Debug, Clone, PartialEq)]
pub enum PatchError {
    /// The offered base graph does not have the structure this plan was
    /// prepared from.
    BaseMismatch,
    /// The delta is malformed or disagrees with the base graph.
    Delta(DeltaError),
    /// The plan bakes an LOA permutation of the whole structure; patching
    /// is not supported, re-prepare instead.
    LoaPlan,
}

impl fmt::Display for PatchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PatchError::BaseMismatch => {
                write!(f, "base graph structure does not match the plan's")
            }
            PatchError::Delta(e) => write!(f, "invalid delta: {e}"),
            PatchError::LoaPlan => write!(f, "LOA plans cannot be patched"),
        }
    }
}

impl std::error::Error for PatchError {}

/// LOA artifacts baked into a plan: the permuted structure plus the maps
/// needed to route per-request values in and results back out.
#[derive(Debug, Clone)]
pub struct LoaLayout {
    /// New vertex order, `perm[new_id] = old_id` (as [`crate::LoaReport`]).
    pub perm: Vec<u32>,
    /// Permuted adjacency *structure*; its values are placeholders that
    /// [`Plan::execute`] overwrites from the request graph via
    /// [`val_gather`](LoaLayout::val_gather).
    pub structure: Csr,
    /// Entry map: permuted entry `i` takes the request graph's value at
    /// original entry `val_gather[i]`.
    pub val_gather: Vec<u32>,
    /// Modeled host seconds the relayout cost (Fig. 16's overhead axis).
    pub seconds: f64,
}

/// A prepared, structure-keyed execution plan: condensed row windows,
/// per-window core choices, optional LOA layout, and the kernel
/// configuration — everything a request needs short of its values.
///
/// ```
/// use gpu_sim::DeviceSpec;
/// use graph_sparse::{gen, DenseMatrix};
/// use hc_core::{Plan, PlanSpec};
///
/// let dev = DeviceSpec::rtx3090();
/// let graph = gen::community(256, 1_500, 8, 0.9, 1);
/// let x = DenseMatrix::random_features(256, 32, 2);
///
/// let plan = Plan::prepare(&graph, PlanSpec::hybrid(), &dev);
/// let out = plan.execute(&graph, &x, &dev); // reusable across requests
/// assert!(graph.spmm_reference(&x).max_abs_diff(&out.z) < 0.05);
/// ```
#[derive(Debug, Clone)]
pub struct Plan {
    /// The configuration this plan was prepared for.
    pub spec: PlanSpec,
    /// Structure digest of the graph the plan was prepared from; requests
    /// must match it.
    pub fingerprint: StructureFingerprint,
    /// The digest's per-row lane checkpoints, persisted so
    /// [`Plan::patch`] can recompute the fingerprint of a mutated graph
    /// from the first dirty row instead of re-hashing the whole structure.
    pub fingerprint_state: FingerprintState,
    /// Hybrid kernel configuration (also carries the CUDA and Tensor paths
    /// the single-core families execute through).
    pub hc: HcSpmm,
    /// Per-tile kernel configuration (the `Straightforward` family).
    pub sf: StraightforwardHybrid,
    /// Condensed windows + selector choices over the (possibly permuted)
    /// structure.
    pub pre: Preprocessed,
    /// LOA artifacts when [`PlanSpec::use_loa`] was set.
    pub loa: Option<LoaLayout>,
    /// Host wall-clock milliseconds the prepare step took (the serving
    /// layer's amortization numerator).
    pub prepare_wall_ms: f64,
    /// Reusable execution arena: cached per-window block costs and
    /// recycled LOA staging buffers. Interior-mutable, so a shared
    /// (`Arc`ed) plan amortizes across requests; cloning the plan starts
    /// a cold workspace.
    pub workspace: Workspace,
}

impl Plan {
    /// Prepare a plan for `a` with the default kernel configurations.
    pub fn prepare(a: &Csr, spec: PlanSpec, dev: &DeviceSpec) -> Plan {
        Plan::prepare_with(HcSpmm::default(), a, spec, dev)
    }

    /// Prepare with an explicit hybrid-kernel configuration (custom
    /// precision or selector).
    pub fn prepare_with(hc: HcSpmm, a: &Csr, spec: PlanSpec, dev: &DeviceSpec) -> Plan {
        let t0 = Instant::now();
        let fingerprint_state = FingerprintState::of(a);
        let fingerprint = fingerprint_state.fingerprint();
        let loa = spec.use_loa.then(|| {
            let rep = Loa::default().run(a);
            let structure = a.permute_symmetric(&rep.perm);
            let val_gather = entry_gather(a, &structure, &rep.perm);
            LoaLayout {
                perm: rep.perm,
                structure,
                val_gather,
                seconds: rep.seconds,
            }
        });
        let pre = match &loa {
            Some(l) => hc.preprocess(&l.structure, dev),
            None => hc.preprocess(a, dev),
        };
        Plan {
            spec,
            fingerprint,
            fingerprint_state,
            hc,
            sf: StraightforwardHybrid::default(),
            pre,
            loa,
            prepare_wall_ms: t0.elapsed().as_secs_f64() * 1e3,
            workspace: Workspace::default(),
        }
    }

    /// Derive the plan for `base` mutated by `delta`, touching only what
    /// the delta dirtied. `base` must be the graph this plan was prepared
    /// from (checked against the fingerprint).
    ///
    /// Work done, all proportional to the dirty suffix / dirty windows
    /// rather than the graph:
    ///
    /// * the fingerprint resumes from the per-row lane checkpoint before
    ///   the first dirty row ([`FingerprintState::update`]);
    /// * only windows containing a mutated row are re-condensed
    ///   ([`RowWindow::build`]) and re-classified by the selector —
    ///   windows the delta missed keep their condensed arrays and core
    ///   choices verbatim (window boundaries are row-aligned and the
    ///   shape is fixed, so untouched windows' contents cannot change);
    /// * the simulated preprocessing bill
    ///   ([`sim_prepare_ms`](Plan::sim_prepare_ms)) covers the dirty
    ///   windows only — the sublinear patch cost the churn benchmark
    ///   gates on;
    /// * cached block-cost vectors for this device are *spliced*: clean
    ///   windows' entries are copied from the old workspace, dirty
    ///   windows' entries recomputed, and the result seeded into the new
    ///   plan's workspace (eviction order preserved, oldest first).
    ///
    /// The patched plan is bit-identical in every request-visible artifact
    /// (partition, choices, block costs, SpMM output and execution timing)
    /// to `Plan::prepare` on the post-mutation graph; the differential
    /// suite in `crates/core/tests/plan_patch_differential.rs` pins that.
    /// LOA plans bake a whole-structure permutation and are not patchable
    /// — callers fall back to a full prepare.
    pub fn patch(
        &self,
        base: &Csr,
        delta: &DeltaCsr,
        dev: &DeviceSpec,
    ) -> Result<Plan, PatchError> {
        self.patch_keyed(base, StructureFingerprint::of(base), delta, dev)
    }

    /// [`Plan::patch`] for a caller that already holds `base`'s
    /// fingerprint: `base_fp` must be `StructureFingerprint::of(base)`,
    /// and it stands in for that O(nnz) pass in the base check.
    pub fn patch_keyed(
        &self,
        base: &Csr,
        base_fp: StructureFingerprint,
        delta: &DeltaCsr,
        dev: &DeviceSpec,
    ) -> Result<Plan, PatchError> {
        let t0 = Instant::now();
        if self.loa.is_some() {
            return Err(PatchError::LoaPlan);
        }
        if base_fp != self.fingerprint {
            return Err(PatchError::BaseMismatch);
        }
        let updated = delta.apply(base).map_err(PatchError::Delta)?;
        let fingerprint_state = match delta.first_dirty_row() {
            Some(d) => self.fingerprint_state.update(&updated, d),
            // Empty delta: nothing changed, keep the checkpoints.
            None => self.fingerprint_state.clone(),
        };

        let wr = self.pre.partition.window_rows;
        let dirty: BTreeSet<usize> = delta.dirty_rows().iter().map(|&r| r / wr).collect();

        // Re-condense + re-classify the dirty windows; copy the rest.
        let mut windows = self.pre.partition.windows.clone();
        let mut choices = self.pre.choices.clone();
        let mut patch_blocks = Vec::with_capacity(dirty.len());
        for &wi in &dirty {
            let start = wi * wr;
            let w = RowWindow::build(&updated, start, wr.min(updated.nrows - start));
            choices[wi] = self.hc.selector.choose(&WindowFeatures::of(&w));
            if let Some(b) = window_preprocess_cost(&w, dev) {
                patch_blocks.push(b);
            }
            windows[wi] = w;
        }
        let partition = graph_sparse::RowWindowPartition {
            windows,
            window_rows: wr,
        };
        // The patch's simulated preprocessing bill: condensing +
        // classification for the dirty windows only.
        let run = dev.execute(&patch_blocks);

        // Splice the old workspace's cached block-cost vectors: every
        // family emits exactly one BlockCost per non-empty window in
        // window order, so clean windows' entries copy across by their
        // rank among non-empty windows and dirty windows' entries are
        // recomputed per family. Only vectors for this device can be
        // recomputed; others are dropped (they rebuild lazily).
        let old_rank = non_empty_ranks(&self.pre.partition);
        let spliced: Vec<_> = self
            .workspace
            .snapshot_costs()
            .into_iter()
            .filter(|(key, blocks)| {
                key.dev == dev.kind && blocks.len() == old_rank.iter().flatten().count()
            })
            .map(|(key, old_blocks)| {
                let mut blocks = Vec::with_capacity(old_blocks.len());
                for (wi, w) in partition.windows.iter().enumerate() {
                    if w.is_empty() {
                        continue;
                    }
                    if dirty.contains(&wi) {
                        blocks.push(match key.family {
                            KernelFamily::Straightforward => self.sf.window_cost(w, key.dim, dev),
                            KernelFamily::Cuda => self.hc.cuda.window_block_cost(
                                w.nnz,
                                w.nnz_cols(),
                                w.rows,
                                key.dim,
                                dev,
                            ),
                            KernelFamily::Tensor => self.hc.tensor.window_block_cost(
                                w.nnz,
                                w.nnz_cols(),
                                w.rows,
                                key.dim,
                                dev,
                            ),
                            KernelFamily::Hybrid => {
                                self.hc.window_cost(w, choices[wi], key.dim, dev)
                            }
                        });
                    } else {
                        let rank = old_rank[wi].expect("clean window keeps its nnz status");
                        blocks.push(old_blocks[rank]);
                    }
                }
                (key, std::sync::Arc::new(blocks))
            })
            .collect();
        let workspace = Workspace::default();
        workspace.seed_costs(spliced);

        Ok(Plan {
            spec: self.spec,
            fingerprint: fingerprint_state.fingerprint(),
            fingerprint_state,
            hc: self.hc,
            sf: self.sf,
            pre: Preprocessed {
                partition,
                choices,
                run,
            },
            loa: None,
            prepare_wall_ms: t0.elapsed().as_secs_f64() * 1e3,
            workspace,
        })
    }

    /// The workspace's traffic counters (block-cost cache hits, scratch
    /// buffer reuse) — the serving layer's per-request allocation metric.
    pub fn workspace_stats(&self) -> WorkspaceStats {
        self.workspace.stats()
    }

    /// Simulated milliseconds the prepare step would cost on the device:
    /// the preprocessing kernel plus the (host-side) LOA run. This is the
    /// deterministic per-request penalty a cold path pays and a cache hit
    /// skips.
    pub fn sim_prepare_ms(&self) -> f64 {
        self.pre.run.time_ms + self.loa.as_ref().map_or(0.0, |l| l.seconds * 1e3)
    }

    /// Execute the plan against a request. `a` must share the prepared
    /// structure (checked against [`Plan::fingerprint`]); its values are
    /// the request's own. Output is bit-identical to executing a freshly
    /// prepared plan of the same spec — and, with `use_loa` off, to the
    /// kernel family's direct `spmm` — at any thread count.
    pub fn execute(&self, a: &Csr, x: &DenseMatrix, dev: &DeviceSpec) -> SpmmResult {
        assert_eq!(
            StructureFingerprint::of(a),
            self.fingerprint,
            "request graph structure does not match the plan's"
        );
        self.execute_as(self.spec.family, a, x, dev)
    }

    /// Execute the plan with an explicit kernel family — the fallback hook
    /// the resilient layer uses to retry a prepared plan on a simpler
    /// family without re-preparing. The prepared partition is shared by
    /// all families, so any family can execute any plan. No fingerprint
    /// check: callers on this path have already validated the request (see
    /// [`crate::resilient::execute_resilient`]).
    pub fn execute_as(
        &self,
        family: KernelFamily,
        a: &Csr,
        x: &DenseMatrix,
        dev: &DeviceSpec,
    ) -> SpmmResult {
        match &self.loa {
            None => self.execute_layout(family, a, x, dev),
            Some(l) => {
                // The row permutation below indexes X before any numeric
                // entry point could name a shape mismatch.
                assert_operand_rows(a, x.rows);
                // Route the request's values into the permuted structure,
                // permute the feature rows to match, then map the output
                // rows back to the original vertex order. All staging
                // buffers come from the workspace and are fully
                // overwritten before use, so reuse is bit-identical to
                // fresh allocation.
                let mut s = self.workspace.checkout();
                let mut ap = s.ap.take().unwrap_or_else(|| l.structure.clone());
                for (slot, &src) in ap.vals.iter_mut().zip(&l.val_gather) {
                    *slot = a.vals[src as usize];
                }
                let mut xp_data = std::mem::take(&mut s.xp);
                xp_data.clear();
                xp_data.reserve(x.rows * x.cols);
                for new in 0..x.rows {
                    xp_data.extend_from_slice(x.row(l.perm[new] as usize));
                }
                let xp = DenseMatrix {
                    rows: x.rows,
                    cols: x.cols,
                    data: xp_data,
                };
                let mut r = self.execute_layout(family, &ap, &xp, dev);
                let mut zdata = std::mem::take(&mut s.zret);
                zdata.clear();
                zdata.resize(r.z.rows * r.z.cols, 0.0);
                let cols = r.z.cols;
                for (new, &old) in l.perm.iter().enumerate() {
                    zdata[old as usize * cols..][..cols].copy_from_slice(r.z.row(new));
                }
                // Hand the result its remapped buffer; recycle the
                // intermediate's storage (and the other stagers) for the
                // next request on this plan.
                s.zret = std::mem::replace(&mut r.z.data, zdata);
                s.xp = xp.data;
                s.ap = Some(ap);
                self.workspace.check_in(s);
                r
            }
        }
    }

    /// Timing-only [`execute_as`](Plan::execute_as): the run record one
    /// `family` launch over this plan's partition bills against a
    /// `width`-column right-hand side, with nothing computed. At a
    /// request's own width it is bit-identical to that request's
    /// `execute_as(..).run`; at `width = Σ d_i` it prices the single
    /// batched SpMM `A·[X1|…|Xk]` that serves k requests on this plan in
    /// one launch. `a` must share the prepared structure; its values never
    /// matter.
    ///
    /// The block costs are derived afresh and the workspace's cost cache
    /// is left untouched, so pricing a batched width never displaces the
    /// vector of a width that requests execute at. Like any launch, it is
    /// observed by a [`gpu_sim::FaultScope`] installed on the calling
    /// thread.
    pub fn execute_run(
        &self,
        family: KernelFamily,
        a: &Csr,
        width: usize,
        dev: &DeviceSpec,
    ) -> KernelRun {
        dev.execute(&self.block_costs(family, a, width, dev))
    }

    /// Per-window block costs of a `family` launch at `width` feature
    /// columns: a pure function of (structure, family, width, device).
    fn block_costs(
        &self,
        family: KernelFamily,
        a: &Csr,
        width: usize,
        dev: &DeviceSpec,
    ) -> Vec<BlockCost> {
        match family {
            KernelFamily::Straightforward => {
                self.sf
                    .partition_block_costs(&self.pre.partition, a, width, dev)
            }
            KernelFamily::Cuda => {
                self.hc
                    .cuda
                    .partition_block_costs(&self.pre.partition, width, dev)
            }
            KernelFamily::Tensor => {
                self.hc
                    .tensor
                    .partition_block_costs(&self.pre.partition, width, dev)
            }
            KernelFamily::Hybrid => self.hc.block_costs(&self.pre, width, dev),
        }
    }

    /// Dispatch to a kernel family against the prepared partition. The
    /// per-window block costs are a pure function of (structure, family,
    /// feature width, device), so they come from the workspace cache —
    /// built on the first request, reused after.
    fn execute_layout(
        &self,
        family: KernelFamily,
        a: &Csr,
        x: &DenseMatrix,
        dev: &DeviceSpec,
    ) -> SpmmResult {
        let blocks = self.workspace.block_costs(family, x.cols, dev.kind, || {
            self.block_costs(family, a, x.cols, dev)
        });
        let run = dev.execute(&blocks);
        let z = match family {
            KernelFamily::Straightforward => self.sf.partition_numeric(&self.pre.partition, a, x),
            KernelFamily::Cuda => self.hc.cuda.numeric(a, x),
            KernelFamily::Tensor => self.hc.tensor.partition_numeric(&self.pre.partition, a, x),
            KernelFamily::Hybrid => self.hc.numeric(&self.pre, a, x),
        };
        SpmmResult { z, run }
    }

    /// Resident bytes of the plan's owned artifacts — what a byte-budgeted
    /// cache charges for keeping it. Recursive and honest: each window is
    /// charged its struct size plus the actual heap content of its
    /// compressed tile metadata (column stream + bitmaps, by length, so
    /// patched and fresh plans account identically); the choice vector and
    /// the LOA layout are charged the same way. Fixed-size plan fields are
    /// ignored.
    pub fn approx_bytes(&self) -> u64 {
        let window_fixed = std::mem::size_of::<graph_sparse::RowWindow>() as u64;
        let windows: u64 = self
            .pre
            .partition
            .windows
            .iter()
            .map(|w| window_fixed + w.meta.heap_bytes() as u64)
            .sum();
        let choices = self.pre.choices.len() as u64;
        let loa = self.loa.as_ref().map_or(0, |l| {
            l.structure.byte_size() + 4 * (l.perm.len() + l.val_gather.len()) as u64
        });
        windows + choices + loa + self.fingerprint_state.checkpoint_bytes()
    }
}

/// For each window, its rank among the partition's non-empty windows (the
/// index its `BlockCost` occupies in every family's cost vector), or
/// `None` for an empty window.
fn non_empty_ranks(part: &graph_sparse::RowWindowPartition) -> Vec<Option<usize>> {
    let mut rank = 0usize;
    part.windows
        .iter()
        .map(|w| {
            if w.is_empty() {
                None
            } else {
                let r = rank;
                rank += 1;
                Some(r)
            }
        })
        .collect()
}

/// For each entry of `permuted` (built by [`Csr::permute_symmetric`] with
/// `perm`), the index of the corresponding entry in `original`. Rows are
/// column-sorted in both matrices, so each entry resolves by binary search.
fn entry_gather(original: &Csr, permuted: &Csr, perm: &[u32]) -> Vec<u32> {
    let mut gather = Vec::with_capacity(permuted.nnz());
    for new_r in 0..permuted.nrows {
        let old_r = perm[new_r] as usize;
        let (os, _) = original.row_range(old_r);
        let old_cols = original.row_cols(old_r);
        for &new_c in permuted.row_cols(new_r) {
            let old_c = perm[new_c as usize];
            let k = old_cols
                .binary_search(&old_c)
                .expect("permuted entry must exist in the original row");
            gather.push((os + k) as u32);
        }
    }
    gather
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::SpmmKernel;
    use crate::{CudaSpmm, TensorSpmm};
    use graph_sparse::gen;

    #[test]
    fn plan_execute_matches_direct_spmm_per_family() {
        let dev = DeviceSpec::rtx3090();
        let a = gen::community(512, 4_000, 16, 0.9, 1);
        let x = DenseMatrix::random_features(512, 32, 2);
        for family in KernelFamily::ALL {
            let plan = Plan::prepare(
                &a,
                PlanSpec {
                    family,
                    use_loa: false,
                },
                &dev,
            );
            let got = plan.execute(&a, &x, &dev).z;
            let want = match family {
                KernelFamily::Straightforward => {
                    StraightforwardHybrid::default().spmm(&a, &x, &dev)
                }
                KernelFamily::Cuda => CudaSpmm::optimized().spmm(&a, &x, &dev),
                KernelFamily::Tensor => TensorSpmm::optimized().spmm(&a, &x, &dev),
                KernelFamily::Hybrid => HcSpmm::default().spmm(&a, &x, &dev),
            };
            assert_eq!(
                got,
                want.z,
                "{} plan diverged from direct spmm",
                family.name()
            );
        }
    }

    /// A 512-column graph executed against an X with `rows` rows.
    fn execute_with_x_rows(family: KernelFamily, use_loa: bool, rows: usize) {
        let dev = DeviceSpec::rtx3090();
        let a = gen::community(512, 4_000, 16, 0.9, 1);
        let x = DenseMatrix::random_features(rows, 32, 2);
        Plan::prepare(&a, PlanSpec { family, use_loa }, &dev).execute(&a, &x, &dev);
    }

    #[test]
    #[should_panic(expected = "feature matrix has 505 rows, graph needs 512")]
    fn execute_names_a_short_feature_matrix() {
        execute_with_x_rows(KernelFamily::Hybrid, false, 505);
    }

    #[test]
    #[should_panic(expected = "feature matrix has 519 rows, graph needs 512")]
    fn execute_names_a_tall_feature_matrix() {
        execute_with_x_rows(KernelFamily::Hybrid, false, 519);
    }

    #[test]
    fn every_family_names_a_shape_mismatch_before_its_pool_region() {
        for family in KernelFamily::ALL {
            for use_loa in [false, true] {
                for rows in [505, 519] {
                    let err =
                        std::panic::catch_unwind(|| execute_with_x_rows(family, use_loa, rows))
                            .expect_err("a mismatched X must not execute");
                    let msg = err
                        .downcast_ref::<String>()
                        .map_or("", String::as_str)
                        .to_owned();
                    assert_eq!(
                        msg,
                        format!("feature matrix has {rows} rows, graph needs 512"),
                        "{} (loa {use_loa})",
                        family.name()
                    );
                }
            }
        }
    }

    #[test]
    fn loa_plan_is_numerically_faithful_and_reusable() {
        let dev = DeviceSpec::rtx3090();
        let a = gen::scatter_relabel(&gen::molecules(512, 1_200, 3), 4);
        let x = DenseMatrix::random_features(512, 32, 5);
        let spec = PlanSpec {
            family: KernelFamily::Hybrid,
            use_loa: true,
        };
        let plan = Plan::prepare(&a, spec, &dev);
        let z = plan.execute(&a, &x, &dev).z;
        // Permutation changes f32 summation order: close, not bit-equal.
        assert!(a.spmm_reference(&x).max_abs_diff(&z) < 0.05);
        // Same structure, new values: the gather must route them correctly.
        let mut b = a.clone();
        for v in &mut b.vals {
            *v *= 0.5;
        }
        let zb = plan.execute(&b, &x, &dev).z;
        assert!(b.spmm_reference(&x).max_abs_diff(&zb) < 0.05);
        // And re-preparing from the reweighted graph gives the identical
        // result (structure-only artifacts).
        let plan_b = Plan::prepare(&b, spec, &dev);
        assert_eq!(zb, plan_b.execute(&b, &x, &dev).z);
    }

    #[test]
    fn workspace_reuse_is_bit_identical_to_fresh_allocation() {
        // The tentpole contract: executing a warm plan (recycled LOA
        // staging buffers, cached block costs) must produce bit-identical
        // output AND identical simulated timing to a cold plan.
        let dev = DeviceSpec::rtx3090();
        let a = gen::scatter_relabel(&gen::molecules(512, 1_200, 3), 4);
        let spec = PlanSpec {
            family: KernelFamily::Hybrid,
            use_loa: true,
        };
        let warm = Plan::prepare(&a, spec, &dev);
        let xs: Vec<DenseMatrix> = (0..3)
            .map(|s| DenseMatrix::random_features(512, 32, 40 + s))
            .collect();
        for (i, x) in xs.iter().enumerate() {
            let got = warm.execute(&a, x, &dev);
            // A cold plan allocates everything fresh.
            let fresh = Plan::prepare(&a, spec, &dev).execute(&a, x, &dev);
            assert_eq!(got.z, fresh.z, "request {i}: warm z != cold z");
            assert_eq!(
                got.run.time_ms.to_bits(),
                fresh.run.time_ms.to_bits(),
                "request {i}: warm timing != cold timing"
            );
        }
        let s = warm.workspace_stats();
        assert_eq!(s.scratch_allocs, 1, "only the first request allocates");
        assert_eq!(s.scratch_reuses, 2);
        assert_eq!(s.cost_builds, 1, "block costs built once");
        assert_eq!(s.cost_reuses, 2);
    }

    #[test]
    fn execute_run_bills_what_execute_as_bills_and_caches_nothing() {
        let dev = DeviceSpec::rtx3090();
        let a = gen::scatter_relabel(&gen::molecules(256, 700, 5), 2);
        for family in KernelFamily::ALL {
            for use_loa in [false, true] {
                let plan = Plan::prepare(&a, PlanSpec { family, use_loa }, &dev);
                for dim in [0, 5, 16, 47] {
                    let x = DenseMatrix::random_features(256, dim, 7);
                    let before = plan.workspace_stats();
                    let priced = plan.execute_run(family, &a, dim, &dev);
                    assert_eq!(plan.workspace_stats(), before, "pricing touched the cache");
                    let billed = plan.execute_as(family, &a, &x, &dev).run;
                    assert_eq!(
                        priced.time_ms.to_bits(),
                        billed.time_ms.to_bits(),
                        "{} (loa {use_loa}) at dim {dim}",
                        family.name()
                    );
                    assert_eq!(priced.profile, billed.profile);
                }
            }
        }
    }

    #[test]
    fn workspace_survives_feature_width_changes() {
        // Requests with different feature widths resize the recycled
        // buffers and key separate block-cost entries; outputs stay
        // bit-identical to fresh plans either way.
        let dev = DeviceSpec::rtx3090();
        let a = gen::scatter_relabel(&gen::molecules(256, 700, 5), 2);
        let spec = PlanSpec {
            family: KernelFamily::Tensor,
            use_loa: true,
        };
        let warm = Plan::prepare(&a, spec, &dev);
        for (i, dim) in [64, 8, 32, 8].iter().enumerate() {
            let x = DenseMatrix::random_features(256, *dim, 90 + i as u64);
            let got = warm.execute(&a, &x, &dev).z;
            let fresh = Plan::prepare(&a, spec, &dev).execute(&a, &x, &dev).z;
            assert_eq!(got, fresh, "dim {dim} diverged on the warm plan");
        }
        let s = warm.workspace_stats();
        // Three distinct dims build three cost vectors; the repeated dim 8
        // hits the cache.
        assert_eq!((s.cost_builds, s.cost_reuses), (3, 1));
        assert_eq!((s.scratch_allocs, s.scratch_reuses), (1, 3));
    }

    #[test]
    fn patch_matches_fresh_prepare_and_bills_only_dirty_windows() {
        use graph_sparse::DeltaCsr;
        let dev = DeviceSpec::rtx3090();
        // Many more windows than SMs, so the simulated preprocess makespan
        // actually scales with window count and the patch can beat it.
        let n = 16 * 1024;
        let a = gen::community(n, 120_000, 64, 0.9, 11);
        let plan = Plan::prepare(&a, PlanSpec::hybrid(), &dev);
        // Warm the workspace so the patch has a cost vector to splice.
        let x = DenseMatrix::random_features(n, 32, 12);
        plan.execute(&a, &x, &dev);
        // A small late delta: one insert, one delete, both in high rows.
        let del = (
            500u32,
            a.row_cols(500).first().copied().expect("row 500 has edges"),
        );
        let delta = DeltaCsr::new(n, n, vec![(498, 3, 1.0)], vec![del]).expect("valid");
        let b = delta.apply(&a).expect("applies");

        let patched = plan.patch(&a, &delta, &dev).expect("patches");
        let fresh = Plan::prepare(&b, PlanSpec::hybrid(), &dev);
        assert_eq!(patched.fingerprint, fresh.fingerprint);
        assert_eq!(patched.fingerprint_state, fresh.fingerprint_state);
        assert_eq!(patched.pre.partition, fresh.pre.partition);
        assert_eq!(patched.pre.choices, fresh.pre.choices);
        // Dirty-window-only preprocessing: two touched windows of 32.
        assert!(
            patched.sim_prepare_ms() < fresh.sim_prepare_ms() / 4.0,
            "patch {} ms vs full {} ms — not sublinear",
            patched.sim_prepare_ms(),
            fresh.sim_prepare_ms()
        );
        // Execution is bit-identical, timing included, and the spliced
        // cost vector serves the first request without a build.
        let got = patched.execute(&b, &x, &dev);
        let want = fresh.execute(&b, &x, &dev);
        assert_eq!(got.z, want.z);
        assert_eq!(got.run.time_ms.to_bits(), want.run.time_ms.to_bits());
        let s = patched.workspace_stats();
        assert_eq!((s.cost_splices, s.cost_builds, s.cost_reuses), (1, 0, 1));
    }

    #[test]
    fn patch_rejects_what_it_cannot_patch() {
        use graph_sparse::{DeltaCsr, DeltaError};
        let dev = DeviceSpec::rtx3090();
        let a = gen::erdos_renyi(128, 500, 21);
        let plan = Plan::prepare(&a, PlanSpec::hybrid(), &dev);
        let delta = DeltaCsr::new(128, 128, vec![], vec![]).expect("empty delta");
        // Wrong base graph, or a caller-held key that is not the plan's.
        let other = gen::erdos_renyi(128, 510, 22);
        assert_eq!(
            plan.patch(&other, &delta, &dev).err(),
            Some(PatchError::BaseMismatch)
        );
        let other_fp = StructureFingerprint::of(&other);
        assert_eq!(
            plan.patch_keyed(&a, other_fp, &delta, &dev).err(),
            Some(PatchError::BaseMismatch)
        );
        // Delta that disagrees with the base.
        let bad = DeltaCsr::new(128, 128, vec![], vec![(0, 0)]).expect("constructs");
        if a.row_cols(0).contains(&0) {
            assert!(plan.patch(&a, &bad, &dev).is_ok());
        } else {
            assert_eq!(
                plan.patch(&a, &bad, &dev).err(),
                Some(PatchError::Delta(DeltaError::EdgeAbsent { row: 0, col: 0 }))
            );
        }
        // LOA plans are not patchable.
        let loa_plan = Plan::prepare(
            &a,
            PlanSpec {
                family: KernelFamily::Hybrid,
                use_loa: true,
            },
            &dev,
        );
        assert_eq!(
            loa_plan.patch(&a, &delta, &dev).err(),
            Some(PatchError::LoaPlan)
        );
    }

    #[test]
    #[should_panic(expected = "does not match the plan")]
    fn structure_mismatch_is_rejected() {
        let dev = DeviceSpec::rtx3090();
        let a = gen::erdos_renyi(128, 500, 1);
        let b = gen::erdos_renyi(128, 510, 2);
        let plan = Plan::prepare(&a, PlanSpec::hybrid(), &dev);
        let x = DenseMatrix::random_features(128, 8, 3);
        plan.execute(&b, &x, &dev);
    }

    #[test]
    fn approx_bytes_tracks_artifact_size() {
        let dev = DeviceSpec::rtx3090();
        let small = Plan::prepare(&gen::erdos_renyi(64, 200, 1), PlanSpec::hybrid(), &dev);
        let large = Plan::prepare(
            &gen::erdos_renyi(2_048, 12_000, 1),
            PlanSpec::hybrid(),
            &dev,
        );
        assert!(small.approx_bytes() > 0);
        assert!(large.approx_bytes() > 4 * small.approx_bytes());
    }

    /// Recursive size-accounting audit: recompute the byte total from
    /// first principles — per window, the struct size plus the *actual*
    /// lengths of its encoded tile-metadata parts; per choice, one byte;
    /// the LOA artifacts; the fingerprint checkpoints — and demand exact
    /// agreement with `approx_bytes`. Catches both stale formulas (the old
    /// version billed a flat 4·(nnz + nnz_cols) + 48 that no longer exists
    /// in memory) and capacity-vs-length drift.
    #[test]
    fn approx_bytes_recursive_audit() {
        let dev = DeviceSpec::rtx3090();
        let graphs = [
            gen::community(512, 4_000, 16, 0.9, 7),
            gen::erdos_renyi(256, 900, 8),
            Csr::empty(64, 64),
        ];
        for (gi, a) in graphs.iter().enumerate() {
            let loa_spec = PlanSpec {
                use_loa: true,
                ..PlanSpec::hybrid()
            };
            for spec in [PlanSpec::hybrid(), loa_spec] {
                let plan = Plan::prepare(a, spec, &dev);
                let mut want = 0u64;
                for w in &plan.pre.partition.windows {
                    let (col_stream, bitmaps) = w.meta.parts();
                    want += std::mem::size_of::<graph_sparse::RowWindow>() as u64
                        + col_stream.len() as u64
                        + 16 * bitmaps.len() as u64;
                    // The heap accessor must agree with the raw parts.
                    assert_eq!(
                        w.meta.heap_bytes(),
                        col_stream.len() + 16 * bitmaps.len(),
                        "graph {gi}: heap_bytes out of sync with parts"
                    );
                }
                want += plan.pre.choices.len() as u64;
                if let Some(l) = &plan.loa {
                    want +=
                        l.structure.byte_size() + 4 * (l.perm.len() + l.val_gather.len()) as u64;
                }
                want += plan.fingerprint_state.checkpoint_bytes();
                assert_eq!(
                    plan.approx_bytes(),
                    want,
                    "graph {gi}, spec {spec:?}: accounting disagrees with a recursive walk"
                );
            }
        }
    }
}
