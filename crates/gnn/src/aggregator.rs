//! Pluggable Aggregation backends for the GNN pipeline.
//!
//! The evaluation's three frameworks differ only in which kernel serves the
//! Aggregation phase (and whether it can fuse the following Update):
//! HC-SpMM (with or without §V-A fusion), GE-SpMM and TC-GNN. The trait
//! below is that seam.

use std::sync::Arc;

use gpu_sim::{DeviceSpec, KernelRun};
use graph_sparse::{Csr, DenseMatrix};
use hc_core::fusion::{fused_agg_update_run, gemm_run, unfused_agg_update_run, AggUpdateResult};
use hc_core::{HcError, HcSpmm, KernelFamily, Plan, PlanSpec, SpmmKernel};

/// An Aggregation backend: computes `Z = Ā·G` and, optionally fused, the
/// following Update `Z·W`.
///
/// The two `_run` methods are the timing-side entry points, mirroring
/// [`SpmmKernel::spmm_run`]: they bill exactly the launches of their
/// computing counterparts but skip products nobody reads — the backward
/// pass's dX-side products, which the paper's frameworks launch and the
/// host never needs.
pub trait Aggregator {
    /// Framework name as printed in Figs. 11–13.
    fn name(&self) -> &'static str;

    /// Aggregation alone.
    fn aggregate(&self, a: &Csr, g: &DenseMatrix, dev: &DeviceSpec) -> (DenseMatrix, KernelRun);

    /// Timing-only [`aggregate`](Aggregator::aggregate) of a `dim`-wide
    /// operand: the same run record, with nothing computed. Must equal
    /// `self.aggregate(a, g, dev).1` for any `g` with `dim` columns.
    fn aggregate_run(&self, a: &Csr, dim: usize, dev: &DeviceSpec) -> KernelRun;

    /// Aggregation followed by an Update of width `update_cols`, with only
    /// the aggregation computed: the run is
    /// [`agg_update`](Aggregator::agg_update)'s for any `g.cols ×
    /// update_cols` weight, and the matrix is its `aggregated`. The default
    /// is the unfused two-launch pipeline every framework other than
    /// HC-SpMM uses.
    fn agg_update_run(
        &self,
        a: &Csr,
        g: &DenseMatrix,
        update_cols: usize,
        dev: &DeviceSpec,
    ) -> (DenseMatrix, KernelRun) {
        let (z, run) = self.aggregate(a, g, dev);
        let gemm = gemm_run(a.nrows, update_cols, g.cols, dev);
        (z, run.then(&gemm))
    }

    /// Aggregation followed by Update: [`agg_update_run`] with the Update
    /// product `(Ā·G)·W` computed on the host.
    ///
    /// [`agg_update_run`]: Aggregator::agg_update_run
    fn agg_update(
        &self,
        a: &Csr,
        g: &DenseMatrix,
        w: &DenseMatrix,
        dev: &DeviceSpec,
    ) -> AggUpdateResult {
        let (aggregated, run) = self.agg_update_run(a, g, w.cols, dev);
        AggUpdateResult {
            out: aggregated.matmul(w),
            aggregated,
            run,
        }
    }
}

/// HC-SpMM aggregation: a prepared [`Plan`] (condense + classify) is built
/// once and reused every epoch, mirroring the deployment model of §VI-B1.
/// The plan is an `Arc` so a serving-side cache (`hc-serve`) and a training
/// loop can share the identical prepared artifacts.
pub struct HcAggregator {
    /// The prepared execution plan for the training graph (hybrid family,
    /// no LOA — see [`HcAggregator::from_plan`]).
    pub plan: Arc<Plan>,
    /// Apply the §V-A kernel fusion where Update follows Aggregation.
    pub fuse: bool,
}

impl HcAggregator {
    /// Preprocess `a` and build the aggregator (fusion on — the deployed
    /// configuration).
    pub fn new(a: &Csr, dev: &DeviceSpec) -> Self {
        Self::with_kernel(HcSpmm::default(), a, dev, true)
    }

    /// Same, with fusion disabled (Table VI's ablation).
    pub fn new_unfused(a: &Csr, dev: &DeviceSpec) -> Self {
        Self::with_kernel(HcSpmm::default(), a, dev, false)
    }

    /// Prepare a plan with a custom kernel configuration (e.g. a selector
    /// pinned to the CUDA path for exact-arithmetic tests).
    pub fn with_kernel(hc: HcSpmm, a: &Csr, dev: &DeviceSpec, fuse: bool) -> Self {
        let plan = Plan::prepare_with(hc, a, PlanSpec::hybrid(), dev);
        Self::from_plan(Arc::new(plan), fuse)
    }

    /// Wrap an already-prepared plan — typically one fetched from an
    /// `hc-serve` plan cache, so training reuses the cached artifacts
    /// instead of re-preprocessing. The plan must be a plain hybrid plan:
    /// the fused Update path consumes the preprocessing of the *original*
    /// graph, which an LOA plan does not carry.
    pub fn from_plan(plan: Arc<Plan>, fuse: bool) -> Self {
        Self::try_from_plan(plan, fuse).expect("plan incompatible with HcAggregator")
    }

    /// Non-panicking [`HcAggregator::from_plan`]: an unusable plan (wrong
    /// kernel family, or LOA-permuted) comes back as a typed
    /// [`HcError::IncompatiblePlan`] instead of aborting a training run.
    pub fn try_from_plan(plan: Arc<Plan>, fuse: bool) -> Result<Self, HcError> {
        if plan.spec.family != KernelFamily::Hybrid {
            return Err(HcError::IncompatiblePlan(
                "HcAggregator requires a hybrid-family plan",
            ));
        }
        if plan.loa.is_some() {
            return Err(HcError::IncompatiblePlan(
                "HcAggregator cannot run on an LOA-permuted plan",
            ));
        }
        Ok(HcAggregator { plan, fuse })
    }
}

impl Aggregator for HcAggregator {
    fn name(&self) -> &'static str {
        if self.fuse {
            "HC-SpMM"
        } else {
            "HC-SpMM (no fusion)"
        }
    }

    fn aggregate(&self, a: &Csr, g: &DenseMatrix, dev: &DeviceSpec) -> (DenseMatrix, KernelRun) {
        let r = self.plan.hc.spmm_preprocessed(&self.plan.pre, a, g, dev);
        (r.z, r.run)
    }

    fn aggregate_run(&self, _a: &Csr, dim: usize, dev: &DeviceSpec) -> KernelRun {
        self.plan.hc.spmm_preprocessed_run(&self.plan.pre, dim, dev)
    }

    fn agg_update_run(
        &self,
        a: &Csr,
        g: &DenseMatrix,
        update_cols: usize,
        dev: &DeviceSpec,
    ) -> (DenseMatrix, KernelRun) {
        let (hc, pre) = (&self.plan.hc, &self.plan.pre);
        if self.fuse {
            fused_agg_update_run(hc, pre, a, g, update_cols, dev)
        } else {
            unfused_agg_update_run(hc, pre, a, g, update_cols, dev)
        }
    }
}

/// Adapter: any [`SpmmKernel`] (GE-SpMM, TC-GNN, …) as an unfused
/// aggregation backend.
pub struct KernelAggregator<K: SpmmKernel> {
    /// The wrapped kernel.
    pub kernel: K,
}

impl<K: SpmmKernel> KernelAggregator<K> {
    /// Wrap a kernel.
    pub fn new(kernel: K) -> Self {
        KernelAggregator { kernel }
    }
}

impl<K: SpmmKernel> Aggregator for KernelAggregator<K> {
    fn name(&self) -> &'static str {
        self.kernel.name()
    }

    fn aggregate(&self, a: &Csr, g: &DenseMatrix, dev: &DeviceSpec) -> (DenseMatrix, KernelRun) {
        let r = self.kernel.spmm(a, g, dev);
        (r.z, r.run)
    }

    fn aggregate_run(&self, a: &Csr, dim: usize, dev: &DeviceSpec) -> KernelRun {
        self.kernel.spmm_run(a, dim, dev)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graph_sparse::gen;

    #[test]
    fn hc_aggregator_reuses_preprocessing() {
        let dev = DeviceSpec::rtx3090();
        let a = gen::community(512, 4000, 16, 0.9, 1).gcn_normalize();
        let agg = HcAggregator::new(&a, &dev);
        let g = DenseMatrix::random_features(a.nrows, 16, 2);
        let (z1, r1) = agg.aggregate(&a, &g, &dev);
        let (z2, _) = agg.aggregate(&a, &g, &dev);
        assert_eq!(z1, z2);
        assert_eq!(r1.profile.launches, 1);
    }

    #[test]
    fn cached_plan_drives_training_aggregation() {
        // The serving cache and a training loop share one prepared plan:
        // no re-preprocessing, identical output to a freshly built
        // aggregator.
        let dev = DeviceSpec::rtx3090();
        let a = gen::community(512, 4000, 16, 0.9, 2).gcn_normalize();
        let g = DenseMatrix::random_features(a.nrows, 16, 3);

        let mut cache = hc_serve::PlanCache::new(u64::MAX, PlanSpec::hybrid());
        let (plan, _) = cache.get_or_prepare(&a, &dev);
        let agg = HcAggregator::from_plan(Arc::clone(&plan), true);
        assert!(
            Arc::ptr_eq(&agg.plan, &plan),
            "plan must be shared, not copied"
        );

        let fresh = HcAggregator::new(&a, &dev);
        assert_eq!(
            agg.aggregate(&a, &g, &dev).0,
            fresh.aggregate(&a, &g, &dev).0
        );
        // Epoch after epoch the cache keeps hitting the same plan.
        let (again, hit) = cache.get_or_prepare(&a, &dev);
        assert!(hit);
        assert!(Arc::ptr_eq(&again, &agg.plan));
    }

    #[test]
    fn incompatible_plans_are_rejected_with_typed_errors() {
        let dev = DeviceSpec::rtx3090();
        let a = gen::community(128, 800, 8, 0.9, 9).gcn_normalize();
        let cuda_plan = Arc::new(Plan::prepare(
            &a,
            PlanSpec {
                family: KernelFamily::Cuda,
                use_loa: false,
            },
            &dev,
        ));
        assert!(matches!(
            HcAggregator::try_from_plan(cuda_plan, true),
            Err(HcError::IncompatiblePlan(_))
        ));
        let loa_plan = Arc::new(Plan::prepare(
            &a,
            PlanSpec {
                family: KernelFamily::Hybrid,
                use_loa: true,
            },
            &dev,
        ));
        assert!(matches!(
            HcAggregator::try_from_plan(loa_plan, true),
            Err(HcError::IncompatiblePlan(_))
        ));
        let good = Arc::new(Plan::prepare(&a, PlanSpec::hybrid(), &dev));
        assert!(HcAggregator::try_from_plan(good, true).is_ok());
    }

    #[test]
    fn fused_and_unfused_agree() {
        let dev = DeviceSpec::rtx3090();
        let a = gen::community(256, 2000, 8, 0.9, 3).gcn_normalize();
        let g = DenseMatrix::random_features(a.nrows, 16, 4);
        let w = DenseMatrix::random_features(16, 8, 5);
        let fused = HcAggregator::new(&a, &dev);
        let unfused = HcAggregator::new_unfused(&a, &dev);
        let rf = fused.agg_update(&a, &g, &w, &dev);
        let ru = unfused.agg_update(&a, &g, &w, &dev);
        assert_eq!(rf.out, ru.out);
        assert!(rf.run.time_ms < ru.run.time_ms);
    }

    /// Bit equality of two run records: both clocks and every counter.
    fn assert_same_run(got: &KernelRun, want: &KernelRun, what: &str) {
        assert_eq!(
            got.time_ms.to_bits(),
            want.time_ms.to_bits(),
            "{what}: time_ms"
        );
        assert_eq!(
            got.makespan_cycles.to_bits(),
            want.makespan_cycles.to_bits(),
            "{what}: makespan_cycles"
        );
        assert_eq!(got.profile, want.profile, "{what}: profile");
    }

    fn bits(m: &DenseMatrix) -> Vec<u32> {
        m.data.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn run_entry_points_bill_exactly_what_the_computing_ones_do() {
        let dev = DeviceSpec::rtx3090();
        // 603 rows and widths off every tile and block size.
        let a = gen::community(603, 4_000, 9, 0.9, 21).gcn_normalize();
        let g = DenseMatrix::random_features(a.nrows, 19, 6);
        let aggs: Vec<Box<dyn Aggregator>> = vec![
            Box::new(HcAggregator::new(&a, &dev)),
            Box::new(HcAggregator::new_unfused(&a, &dev)),
            Box::new(KernelAggregator::new(baselines::GeSpmm)),
            Box::new(KernelAggregator::new(baselines::TcGnnSpmm::default())),
            Box::new(KernelAggregator::new(baselines::CusparseSpmm)),
        ];
        for agg in &aggs {
            // An Update narrower and one wider than G, as in the forward
            // pass and in the backward's dX-side products.
            for update_cols in [7, 37] {
                let what = format!("{} at width {update_cols}", agg.name());
                let w = DenseMatrix::random_features(g.cols, update_cols, 8);
                let full = agg.agg_update(&a, &g, &w, &dev);
                let (aggregated, run) = agg.agg_update_run(&a, &g, update_cols, &dev);
                assert_eq!(bits(&aggregated), bits(&full.aggregated), "{what}");
                assert_same_run(&run, &full.run, &what);
            }
            let (z, run) = agg.aggregate(&a, &g, &dev);
            assert_same_run(&agg.aggregate_run(&a, g.cols, &dev), &run, agg.name());
            let (aggregated, _) = agg.agg_update_run(&a, &g, 7, &dev);
            assert_eq!(bits(&aggregated), bits(&z), "{}", agg.name());
        }
    }

    #[test]
    fn kernel_aggregator_is_exact_for_cuda_kernels() {
        let dev = DeviceSpec::rtx3090();
        let a = gen::erdos_renyi(128, 500, 7).gcn_normalize();
        let g = DenseMatrix::random_features(128, 8, 8);
        let agg = KernelAggregator::new(baselines::GeSpmm);
        let (z, _) = agg.aggregate(&a, &g, &dev);
        assert_eq!(z, a.spmm_reference(&g));
    }
}
