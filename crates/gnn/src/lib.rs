//! # gnn — GNN training pipeline on the simulated device (§V, §VI-C)
//!
//! Implements the training workloads of the paper's end-to-end evaluation:
//! two-layer GCN (Kipf & Welling) and GIN (Xu et al.) with full manual
//! forward/backward passes, where the Aggregation phase is delegated to a
//! pluggable SpMM kernel ([`Aggregator`]) — HC-SpMM with or without kernel
//! fusion, GE-SpMM, or TC-GNN — and every kernel charges simulated time.
//!
//! The numerics are real: gradients are validated against finite
//! differences, and training actually reduces the loss. Only the clock is
//! simulated. The one exception is a product nobody reads — the gradient
//! with respect to the input features — which is billed on the simulated
//! clock, as the modeled frameworks launch it, but not computed.

#![warn(missing_docs)]

pub mod aggregator;
pub mod deep;
pub mod gcn;
pub mod gin;
pub mod memory;
pub mod ops;
pub mod optim;
pub mod train;

pub use aggregator::{Aggregator, HcAggregator, KernelAggregator};
pub use deep::DeepGcn;
pub use gcn::Gcn;
pub use gin::Gin;
pub use optim::{Adam, Optimizer, Sgd};
pub use train::{EpochTiming, Trainer};
