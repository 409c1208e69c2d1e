//! Concurrent sharded plan cache.
//!
//! [`SharedPlanCache`] is the first genuinely concurrent piece of the
//! serving tier: N fingerprint-addressed lanes (shards), each an
//! independently locked [`PlanCache`] with `total_budget / N` bytes, plus
//! one global quarantine registry shared by every lane. Callers take
//! `&self`, so the cache can sit behind an `Arc` and serve request
//! threads directly.
//!
//! ## Concurrency contract
//!
//! * **Shard addressing**: `fp.lo & (shards - 1)` (the shard count is
//!   rounded up to a power of two). The fingerprint's low lane is already
//!   avalanche-mixed, so masking it spreads structures evenly.
//! * **`Plan::prepare` runs outside every lock.** A lookup touches the
//!   shard (hit → done), releases it, prepares, then re-locks to admit.
//!   Two racers may both prepare the same plan; admission is
//!   first-insert-wins ([`PlanCache::admit`]), so both serve the *same*
//!   resident `Arc` and the loser's copy is dropped. Plans are pure
//!   functions of (structure, spec, device), so the copies are
//!   interchangeable bit-for-bit either way.
//! * **Lock order: shard → quarantine registry.** Both
//!   [`get_or_prepare`](SharedPlanCache::get_or_prepare) (miss path) and
//!   [`quarantine`](SharedPlanCache::quarantine) acquire the structure's
//!   shard first and the registry second; nothing acquires two shards at
//!   once. The model suite in `crates/check/tests/shared_cache_model.rs`
//!   explores the interleavings and the lock-order graph under
//!   `--cfg hc_check`; a seeded inversion of this order is caught by the
//!   cycle detector in `crates/check/tests/mutants.rs`.
//! * **Quarantine is permanent and race-free.** `quarantine(fp)` holds
//!   the shard lock while it registers the fingerprint and evicts the
//!   resident plan, and the admit path re-checks the registry under the
//!   same shard lock — so once `quarantine` returns, no plan for that
//!   fingerprint is resident and none can ever be admitted again.
//!   Requests racing *ahead* of the quarantine call may still be served
//!   the old plan; that is inherent (the fault had not been reported
//!   yet), identical to the single-threaded cache.
//!
//! Counter semantics are inherited per shard: within each shard
//! `requests == hits + misses` and `rejected <= misses`, and both
//! invariants survive aggregation ([`stats`](SharedPlanCache::stats)
//! sums the lanes). The hammer test in `tests/hammer.rs` pins them at
//! 1, 2 and 8 threads.

use std::collections::HashSet;
use std::sync::Arc;

use gpu_sim::DeviceSpec;
use graph_sparse::{Csr, StructureFingerprint};
use hc_core::{Plan, PlanSpec, WorkspaceStats};
use hc_parallel::sync::Mutex;

use crate::cache::{CacheStats, PlanCache, ResidentEntry, ShardState};

/// One lookup's result: the plan, whether it came from the cache, and
/// whether the served plan is stale (superseded by a mutation whose
/// patched plan has not been swapped in yet).
#[derive(Debug, Clone)]
pub struct Lookup {
    /// The plan serving this request.
    pub plan: Arc<Plan>,
    /// Whether the plan came from the cache.
    pub hit: bool,
    /// Whether the served plan is flagged stale.
    pub stale: bool,
}

/// What [`SharedPlanCache::swap_patched`] did with the patched plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SwapOutcome {
    /// The patched plan (or a first-insert-wins racer's identical copy)
    /// is resident under the new fingerprint; the superseded entry is
    /// retired.
    Swapped,
    /// The old or new fingerprint was quarantined, so the patched plan —
    /// derived from a poisoned lineage — was barred and the new
    /// fingerprint quarantined as well.
    Quarantined,
}

/// Sharded, internally synchronized [`PlanCache`]: fingerprint-addressed
/// lanes under independent locks, one shared quarantine registry. See
/// the module docs for the concurrency contract.
pub struct SharedPlanCache {
    shards: Vec<Mutex<PlanCache>>,
    mask: usize,
    quarantine: Mutex<HashSet<StructureFingerprint>>,
    spec: PlanSpec,
}

impl SharedPlanCache {
    /// Cache with `total_budget_bytes` split evenly across `shards` lanes
    /// (rounded up to a power of two, minimum 1) for plans of `spec`.
    pub fn new(total_budget_bytes: u64, spec: PlanSpec, shards: usize) -> SharedPlanCache {
        let n = shards.max(1).next_power_of_two();
        let per_shard = total_budget_bytes / n as u64;
        SharedPlanCache {
            shards: (0..n)
                .map(|_| Mutex::named("plan-shard", PlanCache::new(per_shard, spec)))
                .collect(),
            mask: n - 1,
            quarantine: Mutex::named("quarantine-registry", HashSet::new()),
            spec,
        }
    }

    fn shard_index(&self, fp: StructureFingerprint) -> usize {
        fp.lo as usize & self.mask
    }

    fn shard(&self, fp: StructureFingerprint) -> &Mutex<PlanCache> {
        &self.shards[self.shard_index(fp)]
    }

    /// Look up the plan for `a`'s structure, preparing (and, budget and
    /// quarantine permitting, retaining) it on a miss. Returns the plan
    /// and whether it was a hit. `Plan::prepare` runs with no lock held;
    /// concurrent racers on the same fingerprint converge on one resident
    /// plan (first insert wins).
    pub fn get_or_prepare(&self, a: &Csr, dev: &DeviceSpec) -> (Arc<Plan>, bool) {
        let l = self.lookup(a, dev);
        (l.plan, l.hit)
    }

    /// [`get_or_prepare`](SharedPlanCache::get_or_prepare) with the served
    /// plan's staleness exposed: `stale` is true when a mutation has
    /// superseded the plan's structure and the patched replacement has not
    /// been swapped in yet. Freshly prepared plans are never stale.
    pub fn lookup(&self, a: &Csr, dev: &DeviceSpec) -> Lookup {
        self.lookup_keyed(a, StructureFingerprint::of(a), dev)
    }

    /// [`lookup`](SharedPlanCache::lookup) for a caller that already holds
    /// `a`'s fingerprint: `fp` must be `StructureFingerprint::of(a)`, and
    /// it addresses the shard and the entry in place of re-hashing `a`.
    pub fn lookup_keyed(&self, a: &Csr, fp: StructureFingerprint, dev: &DeviceSpec) -> Lookup {
        if let Some((plan, stale)) = self.shard(fp).lock().touch(fp) {
            return Lookup {
                plan,
                hit: true,
                stale,
            };
        }
        // Miss counted; prepare outside the lock.
        let plan = Arc::new(Plan::prepare(a, self.spec, dev));
        debug_assert_eq!(
            plan.fingerprint, fp,
            "lookup key is not the graph's fingerprint"
        );
        let mut shard = self.shard(fp).lock();
        // Lock order: shard → quarantine registry (held only for the
        // membership probe).
        let barred = self.quarantine.lock().contains(&fp);
        if barred {
            shard.note_quarantine_miss();
            return Lookup {
                plan,
                hit: false,
                stale: false,
            };
        }
        Lookup {
            plan: shard.admit(fp, plan),
            hit: false,
            stale: false,
        }
    }

    /// The resident plan for `fp` without counting a request or touching
    /// its eviction state — the patch path fetches the superseded plan as
    /// patch base this way.
    pub fn peek(&self, fp: StructureFingerprint) -> Option<Arc<Plan>> {
        self.shard(fp).lock().peek(fp)
    }

    /// Flag the resident plan for `fp` stale (a mutation superseded its
    /// structure). It keeps serving — every subsequent hit is flagged and
    /// counted in `stale_hits` — until [`swap_patched`]
    /// (SharedPlanCache::swap_patched) retires it. Returns whether a plan
    /// was resident to flag.
    pub fn mark_stale(&self, fp: StructureFingerprint) -> bool {
        self.shard(fp).lock().mark_stale(fp)
    }

    /// Retire the resident plan for `fp` without quarantining it (the
    /// unpatchable-mutation path: the structure changed but no patched
    /// plan could be derived, so the next request prepares from scratch).
    /// Returns whether a plan was resident.
    pub fn remove(&self, fp: StructureFingerprint) -> bool {
        self.shard(fp).lock().remove(fp)
    }

    /// Install a patched plan over the plan it supersedes: admit `plan`
    /// under its own fingerprint (first insert wins — a racing prepare for
    /// the same structure and this swap converge on one resident plan),
    /// then retire the superseded entry. The patched entry continues its
    /// lineage's eviction state: the superseded entry's `hits` and
    /// `cost_ms` (see [`PlanCache::admit_patched`]); with no superseded
    /// entry resident it is admitted fresh. Quarantine is preserved across
    /// the swap: if *either* fingerprint is quarantined the patched plan
    /// is barred from residency and its fingerprint is quarantined too —
    /// it derives from a poisoned plan.
    ///
    /// Locking: the old structure's shard to read the lineage, released;
    /// the new structure's shard, then the registry (the global
    /// shard → registry order), released; the old structure's shard again
    /// to retire it. No path ever holds two shards at once.
    pub fn swap_patched(&self, old_fp: StructureFingerprint, plan: Arc<Plan>) -> SwapOutcome {
        let new_fp = plan.fingerprint;
        let lineage = self.shard(old_fp).lock().entry(old_fp);
        let outcome = {
            let mut shard = self.shard(new_fp).lock();
            // Lock order: shard → quarantine registry.
            let mut reg = self.quarantine.lock();
            if reg.contains(&old_fp) || reg.contains(&new_fp) {
                reg.insert(new_fp);
                drop(reg);
                shard.quarantine(new_fp);
                SwapOutcome::Quarantined
            } else {
                drop(reg);
                shard.note_swap();
                match &lineage {
                    Some(lineage) => shard.admit_patched(new_fp, plan, lineage),
                    None => shard.admit(new_fp, plan),
                };
                SwapOutcome::Swapped
            }
        };
        // Retire the superseded entry (its shard locked on its own; an
        // empty delta patches in place, in which case there is nothing to
        // retire — the admit above already refreshed the entry).
        if old_fp != new_fp {
            self.shard(old_fp).lock().remove(old_fp);
        }
        outcome
    }

    /// Quarantine a structure after its plan produced a fault: register
    /// the fingerprint globally and evict the resident plan, both under
    /// the structure's shard lock, so no subsequent request can ever be
    /// served a plan cached under this fingerprint. Returns true if a
    /// plan was resident.
    pub fn quarantine(&self, fp: StructureFingerprint) -> bool {
        let mut shard = self.shard(fp).lock();
        // Lock order: shard → quarantine registry.
        self.quarantine.lock().insert(fp);
        shard.quarantine(fp)
    }

    /// Whether this structure is barred from residency.
    pub fn is_quarantined(&self, fp: StructureFingerprint) -> bool {
        self.quarantine.lock().contains(&fp)
    }

    /// Aggregate traffic counters over all shards. Each shard's counters
    /// are exact; the sum is a consistent snapshot only when no requests
    /// are in flight (shards are locked one at a time).
    pub fn stats(&self) -> CacheStats {
        let mut total = CacheStats::default();
        for s in &self.shards {
            let st = s.lock().stats();
            total.requests += st.requests;
            total.hits += st.hits;
            total.misses += st.misses;
            total.evictions += st.evictions;
            total.rejected += st.rejected;
            total.quarantined += st.quarantined;
            total.quarantine_misses += st.quarantine_misses;
            total.stale_hits += st.stale_hits;
            total.swaps += st.swaps;
        }
        total
    }

    /// Number of resident plans across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len()).sum()
    }

    /// True when no plans are resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes currently charged across all shard budgets.
    pub fn bytes_used(&self) -> u64 {
        self.shards.iter().map(|s| s.lock().bytes_used()).sum()
    }

    /// Number of lanes (always a power of two).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Per-lane byte budget.
    pub fn shard_budget(&self) -> u64 {
        // All shards share one budget; read it from the first.
        self.shards[0].lock().budget()
    }

    /// The spec every cached plan was prepared with.
    pub fn spec(&self) -> PlanSpec {
        self.spec
    }

    /// Collect the recoverable cache state — each shard's eviction state
    /// ([`PlanCache::state`]: its inflation clock and resident entries in
    /// recency order) plus the quarantine registry — as one consistent
    /// snapshot.
    ///
    /// Locking: every shard is acquired in ascending index order and
    /// *held* while the registry is read, then everything is released.
    /// Holding all shards freezes `swap_patched` and `quarantine` (both
    /// need a shard before they touch the registry), so the collected
    /// state can never be torn: no fingerprint is observed both resident
    /// and quarantined. The order is acyclic against the global
    /// shard → registry discipline — ascending shard acquisition cannot
    /// deadlock with paths that hold at most one shard, and no path holds
    /// the registry while waiting on a shard. Pinned by the snapshot
    /// model suite in `crates/check/tests/snapshot_model.rs`.
    pub fn collect_recoverable_state(&self) -> (Vec<ShardState>, Vec<StructureFingerprint>) {
        let guards: Vec<_> = self.shards.iter().map(|s| s.lock()).collect();
        let shards: Vec<ShardState> = guards.iter().map(|g| g.state()).collect();
        let mut quarantine: Vec<StructureFingerprint> =
            self.quarantine.lock().iter().copied().collect();
        drop(guards);
        quarantine.sort_by_key(|fp| (fp.lo, fp.hi));
        (shards, quarantine)
    }

    /// [`collect_recoverable_state`](SharedPlanCache::collect_recoverable_state)
    /// reduced to each shard's resident fingerprints, least recently used
    /// first.
    pub fn collect_recoverable(
        &self,
    ) -> (Vec<Vec<StructureFingerprint>>, Vec<StructureFingerprint>) {
        let (shards, quarantine) = self.collect_recoverable_state();
        let residency = shards.iter().map(ShardState::fingerprints).collect();
        (residency, quarantine)
    }

    /// The quarantine registry contents, sorted.
    pub fn quarantine_set(&self) -> Vec<StructureFingerprint> {
        let mut v: Vec<StructureFingerprint> = self.quarantine.lock().iter().copied().collect();
        v.sort_by_key(|fp| (fp.lo, fp.hi));
        v
    }

    /// Re-admit a deterministically rebuilt plan with fresh eviction
    /// state (no traffic counted, no eviction; see
    /// [`PlanCache::restore_resident`]), routed to the plan's shard.
    pub fn restore_resident(&self, plan: Arc<Plan>) {
        self.shard(plan.fingerprint).lock().restore_resident(plan);
    }

    /// Re-admit a deterministically rebuilt plan during recovery with its
    /// persisted eviction state (no traffic counted, no eviction; see
    /// [`PlanCache::restore_entry`]). Routes to the plan's shard, so
    /// inserting each persisted shard's entries in their recency order,
    /// after [`restore_inflation`](SharedPlanCache::restore_inflation),
    /// reproduces the pre-crash eviction state exactly.
    pub fn restore_entry(&self, plan: Arc<Plan>, state: &ResidentEntry) {
        self.shard(plan.fingerprint)
            .lock()
            .restore_entry(plan, state);
    }

    /// Restore shard `index`'s persisted inflation clock during recovery
    /// (an index past the shard count is ignored: recovery checks the
    /// count first).
    pub fn restore_inflation(&self, index: usize, inflation: f64) {
        if let Some(s) = self.shards.get(index) {
            s.lock().restore_inflation(inflation);
        }
    }

    /// Restore quarantine registrations during recovery: each fingerprint
    /// is registered globally and in its shard, without touching the
    /// `quarantined` counter (the persisted statistics already include
    /// it).
    pub fn restore_quarantine(&self, fps: &[StructureFingerprint]) {
        for &fp in fps {
            let mut shard = self.shard(fp).lock();
            // Lock order: shard → quarantine registry.
            self.quarantine.lock().insert(fp);
            shard.restore_quarantined(fp);
        }
    }

    /// Seed the aggregate statistics from persisted state (written into
    /// the first shard; [`stats`](SharedPlanCache::stats) sums the
    /// lanes).
    pub fn seed_stats(&self, stats: CacheStats) {
        self.shards[0].lock().seed_stats(stats);
    }

    /// Aggregate workspace counters over the resident plans.
    pub fn workspace_stats(&self) -> WorkspaceStats {
        let mut total = WorkspaceStats::default();
        for s in &self.shards {
            total.add(&s.lock().workspace_stats());
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graph_sparse::{gen, DenseMatrix};

    fn graphs(n: usize) -> Vec<Csr> {
        (0..n)
            .map(|i| gen::erdos_renyi(192, 800, i as u64 + 1))
            .collect()
    }

    #[test]
    fn shard_count_rounds_to_power_of_two() {
        for (ask, got) in [(0, 1), (1, 1), (2, 2), (3, 4), (5, 8), (8, 8)] {
            let c = SharedPlanCache::new(1 << 20, PlanSpec::hybrid(), ask);
            assert_eq!(c.shard_count(), got);
            assert_eq!(c.shard_budget(), (1 << 20) / got as u64);
        }
    }

    #[test]
    fn single_threaded_traffic_matches_unsharded_semantics() {
        let dev = DeviceSpec::rtx3090();
        let gs = graphs(4);
        let cache = SharedPlanCache::new(u64::MAX / 8, PlanSpec::hybrid(), 4);
        for round in 0..3 {
            for g in &gs {
                let (_, hit) = cache.get_or_prepare(g, &dev);
                assert_eq!(hit, round > 0);
            }
        }
        let s = cache.stats();
        assert_eq!(s.requests, 12);
        assert_eq!(s.hits + s.misses, s.requests);
        assert_eq!(s.misses, 4);
        assert_eq!(cache.len(), 4);
        assert!(!cache.is_empty());
    }

    #[test]
    fn results_are_bit_identical_to_fresh_plans() {
        let dev = DeviceSpec::rtx3090();
        let gs = graphs(2);
        let cache = SharedPlanCache::new(u64::MAX / 4, PlanSpec::hybrid(), 2);
        for g in &gs {
            let x = DenseMatrix::random_features(g.nrows, 24, 5);
            let fresh = Plan::prepare(g, PlanSpec::hybrid(), &dev)
                .execute(g, &x, &dev)
                .z;
            let (p1, _) = cache.get_or_prepare(g, &dev);
            let (p2, hit) = cache.get_or_prepare(g, &dev);
            assert!(hit);
            assert!(Arc::ptr_eq(&p1, &p2));
            assert_eq!(p1.execute(g, &x, &dev).z, fresh);
        }
    }

    #[test]
    fn swap_patched_replaces_the_stale_plan() {
        use graph_sparse::DeltaCsr;
        let dev = DeviceSpec::rtx3090();
        let a = gen::erdos_renyi(192, 800, 41);
        let cache = SharedPlanCache::new(u64::MAX / 4, PlanSpec::hybrid(), 4);
        let l = cache.lookup(&a, &dev);
        assert!(!l.hit && !l.stale);
        let old_fp = l.plan.fingerprint;

        // Mutation admitted: the old plan serves on, flagged stale.
        assert!(cache.mark_stale(old_fp));
        let l = cache.lookup(&a, &dev);
        assert!(l.hit && l.stale);
        assert_eq!(cache.stats().stale_hits, 1);

        // Patch off the resident plan and swap.
        let (r, &c) = (0..a.nrows)
            .find_map(|r| a.row_cols(r).first().map(|c| (r, c)))
            .expect("graph has edges");
        let delta = DeltaCsr::new(a.nrows, a.ncols, vec![], vec![(r as u32, c)]).expect("valid");
        let b = delta.apply(&a).expect("applies");
        let base = cache.peek(old_fp).expect("resident");
        let patched = Arc::new(base.patch(&a, &delta, &dev).expect("patches"));
        assert_eq!(
            cache.swap_patched(old_fp, Arc::clone(&patched)),
            SwapOutcome::Swapped
        );

        // New structure hits the swapped-in plan, not stale; the old
        // structure is retired (misses and re-prepares).
        let lb = cache.lookup(&b, &dev);
        assert!(lb.hit && !lb.stale);
        assert!(Arc::ptr_eq(&lb.plan, &patched));
        let la = cache.lookup(&a, &dev);
        assert!(!la.hit);
        let s = cache.stats();
        assert_eq!(s.swaps, 1);
        assert_eq!(s.stale_hits, 1);
    }

    #[test]
    fn swapped_in_patched_plan_continues_its_lineage() {
        use graph_sparse::DeltaCsr;
        let dev = DeviceSpec::rtx3090();
        let a = gen::erdos_renyi(192, 800, 42);
        let old_fp = StructureFingerprint::of(&a);
        let cache = SharedPlanCache::new(u64::MAX / 4, PlanSpec::hybrid(), 4);
        for _ in 0..3 {
            cache.lookup(&a, &dev); // one admission, two hits
        }
        let (r, &c) = (0..a.nrows)
            .find_map(|r| a.row_cols(r).first().map(|c| (r, c)))
            .expect("graph has edges");
        let delta = DeltaCsr::new(a.nrows, a.ncols, vec![], vec![(r as u32, c)]).expect("valid");
        let base = cache.peek(old_fp).expect("resident");
        let patched = Arc::new(base.patch(&a, &delta, &dev).expect("patches"));
        assert!(
            patched.sim_prepare_ms() < base.sim_prepare_ms(),
            "a patch bills the dirty windows only"
        );
        cache.swap_patched(old_fp, Arc::clone(&patched));

        let entry = |fp: StructureFingerprint| {
            cache
                .collect_recoverable_state()
                .0
                .into_iter()
                .flat_map(|s| s.resident)
                .find(|e| e.fp == fp)
        };
        assert!(entry(old_fp).is_none(), "superseded entry retired");
        // The patched entry carries its lineage's hits and rebuild cost,
        // priced by its own size.
        let e = entry(patched.fingerprint).expect("patched plan resident");
        assert_eq!((e.hits, e.cost_ms), (3, base.sim_prepare_ms()));
        assert_eq!(
            e.priority,
            3.0 * base.sim_prepare_ms() / patched.approx_bytes() as f64
        );
        // Its next hit continues the count.
        let b = delta.apply(&a).expect("applies");
        assert!(cache.lookup(&b, &dev).hit);
        assert_eq!(entry(patched.fingerprint).expect("resident").hits, 4);
    }

    #[test]
    fn swap_patched_preserves_quarantine_across_the_swap() {
        use graph_sparse::DeltaCsr;
        let dev = DeviceSpec::rtx3090();
        let a = gen::erdos_renyi(192, 800, 43);
        let cache = SharedPlanCache::new(u64::MAX / 4, PlanSpec::hybrid(), 4);
        let (plan, _) = cache.get_or_prepare(&a, &dev);
        let old_fp = plan.fingerprint;
        let (r, &c) = (0..a.nrows)
            .find_map(|r| a.row_cols(r).first().map(|c| (r, c)))
            .expect("graph has edges");
        let delta = DeltaCsr::new(a.nrows, a.ncols, vec![], vec![(r as u32, c)]).expect("valid");
        let b = delta.apply(&a).expect("applies");
        let patched = Arc::new(plan.patch(&a, &delta, &dev).expect("patches"));
        let new_fp = patched.fingerprint;

        // Fault reported between patch build and swap: the old lineage is
        // poisoned, so the patched plan must never gain residency.
        cache.quarantine(old_fp);
        assert_eq!(
            cache.swap_patched(old_fp, patched),
            SwapOutcome::Quarantined
        );
        assert!(cache.is_quarantined(new_fp));
        let lb = cache.lookup(&b, &dev);
        assert!(!lb.hit, "quarantined lineage must not be resident");
        let lb = cache.lookup(&b, &dev);
        assert!(!lb.hit, "and never regains residency");
        assert!(cache.stats().quarantine_misses >= 2);
        assert_eq!(cache.stats().swaps, 0);
    }

    #[test]
    fn quarantine_is_global_and_permanent() {
        let dev = DeviceSpec::rtx3090();
        let gs = graphs(2);
        let fp = StructureFingerprint::of(&gs[0]);
        let cache = SharedPlanCache::new(u64::MAX / 4, PlanSpec::hybrid(), 4);
        let (poisoned, _) = cache.get_or_prepare(&gs[0], &dev);
        assert!(cache.quarantine(fp), "resident plan must be evicted");
        assert!(cache.is_quarantined(fp));
        assert_eq!(cache.stats().quarantined, 1);
        for _ in 0..2 {
            let (plan, hit) = cache.get_or_prepare(&gs[0], &dev);
            assert!(!hit);
            assert!(!Arc::ptr_eq(&plan, &poisoned));
        }
        assert_eq!(cache.stats().quarantine_misses, 2);
        // Unrelated structures are unaffected.
        cache.get_or_prepare(&gs[1], &dev);
        let (_, hit) = cache.get_or_prepare(&gs[1], &dev);
        assert!(hit);
    }
}
