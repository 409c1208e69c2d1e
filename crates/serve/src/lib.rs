//! # hc-serve — structure-keyed plan cache and serving front-end
//!
//! First piece of the serving architecture on the ROADMAP: HC-SpMM's
//! preprocessing is only worth its ≈13×-one-SpMM cost (Appendix F) when
//! amortized over many invocations, and a serving workload amortizes it by
//! *reusing plans across requests on the same graph*. This crate holds:
//!
//! * [`PlanCache`] — maps [`graph_sparse::StructureFingerprint`] →
//!   prepared [`hc_core::Plan`] under a byte budget with cost-aware
//!   GreedyDual-Size-Frequency eviction and hit/miss/eviction counters;
//! * [`SharedPlanCache`] — the concurrent, sharded version of the cache
//!   (fingerprint-addressed lanes + global quarantine registry) that many
//!   threads hit at once;
//! * [`Front`] — the one request executor, over the shared cache:
//!   epoch-batched admission with per-tenant quotas and a bounded queue
//!   (typed `Overloaded` shedding), structure-fingerprint *cohorts* that
//!   amortize one preparation across every in-flight request on the same
//!   graph, parallel cohort execution over worker threads, and p50/p99 +
//!   per-tenant SLO accounting. Every [`Request`] executes resiliently:
//!   retry, kernel-family fallback and a typed per-request [`Outcome`]
//!   instead of a panic, with fault-implicated plans quarantined in the
//!   cache. [`Front::in_order`] serves a stream strictly in sequence (one
//!   shard, one-arrival epochs), the way a plain plan-cache loop would.
//!
//! Requests are served in deterministic order at every layer: outputs,
//! cache counters, cohort assignments and simulated latencies are
//! bit-identical at 1, 2 or 64 workers.
//!
//! The durability layer makes the front crash-safe: [`wal`] logs every
//! applied delta (checksummed, fsync-marked at epoch barriers) before the
//! patched plan is swapped in, [`snapshot`] atomically persists the
//! recoverable state (graphs, cache eviction state, quarantine — never
//! plans, which are deterministically rebuilt), and [`DurableFront`]
//! stitches them into a crash/recover/resume loop whose recovered output
//! is bit-identical to an uncrashed run.

#![warn(missing_docs)]

pub mod cache;
mod codec;
pub mod durable;
pub mod front;
pub mod shared;
pub mod snapshot;
pub mod wal;

pub use cache::{CacheStats, PlanCache, ResidentEntry, ShardState};
pub use durable::{
    run_to_completion, DurabilityConfig, DurableFront, RecoveryStats, RunAttempt, RunOutcome,
};
pub use front::{
    Front, FrontConfig, FrontCounters, FrontEvent, FrontReport, FrontRequest, FrontResponse,
    LatencyStats, Mutation, MutationOutcome, Outcome, Request, TenantId, TenantStats,
};
pub use shared::{Lookup, SharedPlanCache, SwapOutcome};
pub use snapshot::Snapshot;
pub use wal::{DeltaRecord, EpochMarker, RecoveryError, Wal, WalRecord, WalReplay};
