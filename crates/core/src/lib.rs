//! # hc-core — the HC-SpMM hybrid-core SpMM kernel (the paper's contribution)
//!
//! Implements §IV and §V of *HC-SpMM: Accelerating Sparse Matrix-Matrix
//! Multiplication for Graphs with Hybrid GPU Cores* (ICDE 2025):
//!
//! * [`kernels::cuda`] — SpMM on CUDA cores (Algorithm 1) with the
//!   generalization and shared-memory optimizations of Algorithm 3;
//! * [`kernels::tensor`] — SpMM on Tensor cores (Algorithm 2) with the
//!   cooperative data-loading strategy of Algorithm 4 / Fig. 6;
//! * [`selector`] — the logistic-regression core selector and its four-step
//!   training pipeline (§IV-C);
//! * [`kernels::hybrid`] — the hybrid kernel: row windows partitioned
//!   (§IV-A), classified, and dispatched to the right cores in one launch;
//! * [`preprocess`] — GPU-side preprocessing (condensing + classification)
//!   whose overhead Table XI accounts;
//! * [`loa`] — the LOA graph-layout reorganization algorithm
//!   (Algorithms 5/6, §V-B);
//! * [`fusion`] — the Aggregation+Update kernel-fusion strategy (§V-A);
//! * [`sanitize`] — compute-sanitizer-style checking of every kernel
//!   family's window traces against the costs it bills;
//! * [`resilient`] — typed errors, bounded retry, kernel-family fallback
//!   chains and output validation over prepared [`Plan`]s;
//! * [`workspace`] — the per-plan reusable execution arena (cached block
//!   costs, recycled LOA staging buffers) that keeps the serving hot path
//!   allocation-free per request.
//!
//! Kernels compute real `f32` numerics on the CPU while charging simulated
//! GPU time through the `gpu-sim` substrate; see that crate's docs.

#![warn(missing_docs)]

pub mod chunked;
pub mod features;
pub mod fusion;
pub mod kernels;
pub mod loa;
pub mod plan;
pub mod preprocess;
pub mod resilient;
pub mod sanitize;
pub mod selector;
pub mod workspace;

pub use features::WindowFeatures;
pub use kernels::cuda::CudaSpmm;
pub use kernels::hybrid::HcSpmm;
pub use kernels::straightforward::StraightforwardHybrid;
pub use kernels::tensor::TensorSpmm;
pub use kernels::{SpmmKernel, SpmmResult};
pub use loa::{Loa, LoaBrute, LoaReport};
pub use plan::{LoaLayout, PatchError, Plan, PlanSpec};
pub use preprocess::{
    preprocess_oracle, window_preprocess_cost, window_preprocess_cost_with, Preprocessed,
};
pub use resilient::{
    execute_resilient, execute_resilient_keyed, fallback_chain, FallbackStep, HcError,
    OverloadReason, ResiliencePolicy, ResilientRun, Validation,
};
pub use sanitize::{
    conformance_family, sanitize_family, sanitize_graph, FamilyReport, KernelFamily, SampleSpec,
};
pub use selector::{CoreChoice, SelectionPolicy, Selector};
pub use workspace::{Workspace, WorkspaceStats};
