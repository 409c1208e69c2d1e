//! # hc-serve — structure-keyed plan cache and batched serving driver
//!
//! First piece of the serving architecture on the ROADMAP: HC-SpMM's
//! preprocessing is only worth its ≈13×-one-SpMM cost (Appendix F) when
//! amortized over many invocations, and a serving workload amortizes it by
//! *reusing plans across requests on the same graph*. This crate holds:
//!
//! * [`PlanCache`] — maps [`graph_sparse::StructureFingerprint`] →
//!   prepared [`hc_core::Plan`] under a byte budget with cost-aware
//!   GreedyDual-Size-Frequency eviction and hit/miss/eviction counters;
//! * [`BatchDriver`] — runs a stream of (graph, feature-matrix)
//!   [`Request`]s through cached plans on the `hc-parallel` pool, each
//!   request executed resiliently: retry, kernel-family fallback and typed
//!   per-request [`Outcome`]s instead of panics, with fault-implicated
//!   plans quarantined in the cache;
//! * [`SharedPlanCache`] — the concurrent, sharded version of the cache
//!   (fingerprint-addressed lanes + global quarantine registry) that many
//!   threads hit at once;
//! * [`Front`] — the multi-tenant serving front-end over the shared
//!   cache: epoch-batched admission with per-tenant quotas and a bounded
//!   queue (typed `Overloaded` shedding), structure-fingerprint *cohorts*
//!   that amortize one preparation across every in-flight request on the
//!   same graph, parallel cohort execution over worker threads, and
//!   p50/p99 + per-tenant SLO accounting.
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
pub mod driver;
pub mod durable;
pub mod front;
pub mod shared;
pub mod snapshot;
pub mod wal;

pub use cache::{CacheStats, PlanCache, ResidentEntry, ShardState};
pub use driver::{BatchDriver, BatchSummary, Outcome, Request, Response};
pub use durable::{
    run_to_completion, DurabilityConfig, DurableFront, RecoveryStats, RunAttempt, RunOutcome,
};
pub use front::{
    Front, FrontConfig, FrontCounters, FrontEvent, FrontReport, FrontRequest, FrontResponse,
    LatencyStats, Mutation, MutationOutcome, TenantId, TenantStats,
};
pub use shared::{Lookup, SharedPlanCache, SwapOutcome};
pub use snapshot::Snapshot;
pub use wal::{DeltaRecord, EpochMarker, RecoveryError, Wal, WalRecord, WalReplay};
