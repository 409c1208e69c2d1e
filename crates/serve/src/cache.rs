//! Byte-budgeted plan cache with cost-aware eviction
//! (GreedyDual-Size-Frequency).
//!
//! Keys are structure fingerprints, so any two graphs with identical CSR
//! structure — regardless of values — share one plan. The budget charges
//! each plan its [`Plan::approx_bytes`]; inserting past the budget evicts
//! the lowest-priority plans until the newcomer fits. A plan larger than
//! the whole budget is prepared and returned but never retained (the
//! `rejected` counter), which also makes a zero-byte budget an exact model
//! of "caching disabled": every request misses, every result stays
//! correct.
//!
//! ## Eviction: GreedyDual-Size-Frequency
//!
//! Preprocessing costs ≈13× one SpMM (the paper's Appendix F) and pays
//! only when a plan is reused, so the cache keeps the plans that are
//! costly to rebuild per byte and often reused (Cherkasova, 1998). Each
//! entry carries
//!
//! * `cost_ms` — what a miss would pay to rebuild the plan: the
//!   simulated prepare time of a freshly prepared plan. A patched plan
//!   inherits its lineage's (see
//!   [`SharedPlanCache::swap_patched`](crate::SharedPlanCache::swap_patched)):
//!   its own prepare bill covers only the dirty windows;
//! * `hits` — 1 at admission, one more per hit;
//! * `priority = L + hits × cost_ms / bytes`, recomputed at admission
//!   and at every hit.
//!
//! `L` is the cache's inflation clock. It starts at 0 and rises to each
//! victim's priority, so plans admitted or hit later outrank plans whose
//! frequency was earned long ago. The victim is the lowest priority;
//! ties go to the oldest use stamp. Every touch and every admission takes
//! its own clock tick, so stamps are unique and the eviction sequence is
//! deterministic despite `HashMap`'s arbitrary iteration order. Retiring
//! a superseded plan ([`PlanCache::remove`]) and quarantine do not move
//! `L`.
//!
//! [`PlanCache::state`] exports `L` and each entry's policy state in
//! recency order; the durability layer persists it, and restoring it
//! ([`PlanCache::restore_entry`]) reproduces every later eviction.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use gpu_sim::DeviceSpec;
use graph_sparse::{Csr, StructureFingerprint};
use hc_core::{Plan, PlanSpec, WorkspaceStats};

/// Cache traffic counters. `requests == hits + misses` always holds;
/// `rejected` counts the subset of misses whose plan was too large to
/// retain.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served.
    pub requests: u64,
    /// Lookups satisfied from the cache.
    pub hits: u64,
    /// Lookups that had to prepare a plan.
    pub misses: u64,
    /// Resident plans evicted to make room.
    pub evictions: u64,
    /// Prepared plans too large for the budget (returned, not retained).
    pub rejected: u64,
    /// Structures quarantined after producing a fault (see
    /// [`PlanCache::quarantine`]).
    pub quarantined: u64,
    /// Misses forced by quarantine: the structure was (or would have been)
    /// cached, but its plans are barred from residency.
    pub quarantine_misses: u64,
    /// Hits served from a plan flagged stale (a mutation superseded its
    /// structure and the patched replacement has not been swapped in yet).
    /// A subset of `hits`.
    pub stale_hits: u64,
    /// Patched plans swapped in over their predecessor (the old entry is
    /// removed, the new one admitted first-insert-wins).
    pub swaps: u64,
}

impl CacheStats {
    /// Fraction of requests served from the cache (0 when none served).
    pub fn hit_rate(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.hits as f64 / self.requests as f64
        }
    }
}

/// One resident plan's eviction state, as the durability layer persists
/// it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResidentEntry {
    /// The plan's structure fingerprint.
    pub fp: StructureFingerprint,
    /// 1 at admission, one more per hit; a patched plan continues the
    /// count of the plan it superseded.
    pub hits: u64,
    /// Simulated ms a miss would pay to rebuild the plan.
    pub cost_ms: f64,
    /// `L + hits × cost_ms / bytes`, with `L` as of the entry's last
    /// admission or hit.
    pub priority: f64,
}

/// A cache's recoverable eviction state: the inflation clock and every
/// resident entry, in recency order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ShardState {
    /// The inflation clock `L`: the priority of the last plan evicted (0
    /// before the first eviction).
    pub inflation: f64,
    /// Resident entries, least recently used first.
    pub resident: Vec<ResidentEntry>,
}

impl ShardState {
    /// The resident fingerprints, least recently used first.
    pub fn fingerprints(&self) -> Vec<StructureFingerprint> {
        self.resident.iter().map(|e| e.fp).collect()
    }
}

/// GDSF priority: `inflation + hits × cost_ms / bytes`.
fn priority(inflation: f64, hits: u64, cost_ms: f64, bytes: u64) -> f64 {
    inflation + hits as f64 * cost_ms / bytes.max(1) as f64
}

struct Entry {
    plan: Arc<Plan>,
    bytes: u64,
    /// Clock tick of the last touch or admission; unique per entry.
    last_used: u64,
    hits: u64,
    cost_ms: f64,
    priority: f64,
    /// A mutation superseded this plan's structure; it keeps serving
    /// (flagged) until the patched replacement is swapped in.
    stale: bool,
}

/// Structure-keyed GDSF plan cache. One cache serves one [`PlanSpec`] —
/// fixing the spec at construction keeps every cached plan executable
/// interchangeably (a fingerprint hit could otherwise return a plan
/// prepared for a different kernel family).
pub struct PlanCache {
    budget: u64,
    spec: PlanSpec,
    entries: HashMap<StructureFingerprint, Entry>,
    quarantined: HashSet<StructureFingerprint>,
    bytes: u64,
    clock: u64,
    /// GDSF inflation clock `L`.
    inflation: f64,
    stats: CacheStats,
}

impl PlanCache {
    /// Cache with a byte budget for plans of `spec`.
    pub fn new(budget_bytes: u64, spec: PlanSpec) -> PlanCache {
        PlanCache {
            budget: budget_bytes,
            spec,
            entries: HashMap::new(),
            quarantined: HashSet::new(),
            bytes: 0,
            clock: 0,
            inflation: 0.0,
            stats: CacheStats::default(),
        }
    }

    /// Advance the use clock and return the new stamp.
    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    /// Look up the plan for `a`'s structure, preparing (and, budget
    /// permitting, retaining) it on a miss. Returns the plan and whether
    /// it was a hit. Deterministic: the same request sequence produces the
    /// same hits, evictions and counters at any thread count.
    pub fn get_or_prepare(&mut self, a: &Csr, dev: &DeviceSpec) -> (Arc<Plan>, bool) {
        let fp = StructureFingerprint::of(a);
        if let Some((plan, _stale)) = self.touch(fp) {
            return (plan, true);
        }
        let plan = Arc::new(Plan::prepare(a, self.spec, dev));
        if self.quarantined.contains(&fp) {
            // Quarantined structures are served by fresh ad-hoc plans but
            // never regain residency: a poisoned plan is gone for good,
            // and nothing under its fingerprint is ever re-served.
            self.note_quarantine_miss();
            return (plan, false);
        }
        (self.admit(fp, plan), false)
    }

    /// Record a lookup: on a hit, count it in the entry's `hits`, raise
    /// its priority, refresh its use stamp, and return the resident plan
    /// plus its staleness flag; on a miss, count it and return `None` —
    /// the caller prepares the plan (outside any lock, in the sharded
    /// cache) and offers it back via [`admit`](PlanCache::admit). Split
    /// out of [`get_or_prepare`](PlanCache::get_or_prepare) so
    /// [`SharedPlanCache`](crate::SharedPlanCache) never holds a shard
    /// lock across `Plan::prepare`.
    pub fn touch(&mut self, fp: StructureFingerprint) -> Option<(Arc<Plan>, bool)> {
        self.stats.requests += 1;
        let tick = self.tick();
        let inflation = self.inflation;
        if let Some(e) = self.entries.get_mut(&fp) {
            e.last_used = tick;
            e.hits += 1;
            e.priority = priority(inflation, e.hits, e.cost_ms, e.bytes);
            self.stats.hits += 1;
            if e.stale {
                self.stats.stale_hits += 1;
            }
            return Some((Arc::clone(&e.plan), e.stale));
        }
        self.stats.misses += 1;
        None
    }

    /// The resident plan for `fp`, without counting a request or touching
    /// its eviction state. The patch path uses this to fetch the
    /// superseded plan as patch base.
    pub fn peek(&self, fp: StructureFingerprint) -> Option<Arc<Plan>> {
        self.entries.get(&fp).map(|e| Arc::clone(&e.plan))
    }

    /// The eviction state of the resident plan for `fp`, without counting
    /// a request or touching it.
    pub fn entry(&self, fp: StructureFingerprint) -> Option<ResidentEntry> {
        self.entries.get(&fp).map(|e| ResidentEntry {
            fp,
            hits: e.hits,
            cost_ms: e.cost_ms,
            priority: e.priority,
        })
    }

    /// Flag the resident plan for `fp` stale: a mutation superseded its
    /// structure, and until the patched plan is swapped in it keeps
    /// serving with every hit counted in `stale_hits`. Returns whether a
    /// plan was resident to flag.
    pub fn mark_stale(&mut self, fp: StructureFingerprint) -> bool {
        if let Some(e) = self.entries.get_mut(&fp) {
            e.stale = true;
            true
        } else {
            false
        }
    }

    /// Remove the entry for `fp` (the swap path retires the superseded
    /// plan this way; not counted as an eviction, and `L` stays). Returns
    /// whether a plan was resident.
    pub fn remove(&mut self, fp: StructureFingerprint) -> bool {
        if let Some(e) = self.entries.remove(&fp) {
            self.bytes -= e.bytes;
            true
        } else {
            false
        }
    }

    /// Count a patched-plan swap (the new structure's shard owns the
    /// counter).
    pub fn note_swap(&mut self) {
        self.stats.swaps += 1;
    }

    /// Count a miss that quarantine barred from admission (pairs with a
    /// [`touch`](PlanCache::touch) miss).
    pub fn note_quarantine_miss(&mut self) {
        self.stats.quarantine_misses += 1;
    }

    /// Offer a freshly prepared plan for residency after a
    /// [`touch`](PlanCache::touch) miss: `hits` starts at 1 and `cost_ms`
    /// at the plan's simulated prepare time. First insert wins: if a
    /// concurrent racer already admitted a plan for `fp`, the resident
    /// plan's use stamp is refreshed and it is returned (so every caller
    /// serves the same `Arc`); the offered one is dropped. Oversized
    /// plans are counted `rejected` and returned unretained; otherwise
    /// the lowest-priority entries are evicted until the newcomer fits.
    pub fn admit(&mut self, fp: StructureFingerprint, plan: Arc<Plan>) -> Arc<Plan> {
        let cost_ms = plan.sim_prepare_ms();
        self.admit_with(fp, plan, 1, cost_ms)
    }

    /// [`admit`](PlanCache::admit) for a patched plan: it continues the
    /// `hits` and `cost_ms` of `lineage`, the entry it supersedes. The
    /// patched plan's own `sim_prepare_ms` bills only the dirty windows,
    /// not what a miss would pay.
    pub fn admit_patched(
        &mut self,
        fp: StructureFingerprint,
        plan: Arc<Plan>,
        lineage: &ResidentEntry,
    ) -> Arc<Plan> {
        self.admit_with(fp, plan, lineage.hits, lineage.cost_ms)
    }

    fn admit_with(
        &mut self,
        fp: StructureFingerprint,
        plan: Arc<Plan>,
        hits: u64,
        cost_ms: f64,
    ) -> Arc<Plan> {
        let tick = self.tick();
        if let Some(e) = self.entries.get_mut(&fp) {
            e.last_used = tick;
            return Arc::clone(&e.plan);
        }
        let bytes = plan.approx_bytes();
        if bytes > self.budget {
            self.stats.rejected += 1;
            return plan;
        }
        while self.bytes + bytes > self.budget {
            self.evict();
        }
        self.bytes += bytes;
        self.entries.insert(
            fp,
            Entry {
                plan: Arc::clone(&plan),
                bytes,
                last_used: tick,
                hits,
                cost_ms,
                priority: priority(self.inflation, hits, cost_ms, bytes),
                stale: false,
            },
        );
        plan
    }

    /// Drop the lowest-priority entry (ties to the oldest stamp) and
    /// raise `L` to its priority. Stamps are unique, so the victim — and
    /// therefore the whole eviction sequence — is deterministic despite
    /// `HashMap`'s arbitrary iteration order.
    fn evict(&mut self) {
        let victim = self
            .entries
            .iter()
            .min_by(|(_, a), (_, b)| {
                a.priority
                    .total_cmp(&b.priority)
                    .then(a.last_used.cmp(&b.last_used))
            })
            .map(|(fp, _)| *fp)
            .expect("eviction requested on an empty cache");
        let e = self
            .entries
            .remove(&victim)
            .expect("victim key came from this map");
        self.bytes -= e.bytes;
        self.inflation = e.priority;
        self.stats.evictions += 1;
    }

    /// Quarantine a structure after its plan produced a fault: evict the
    /// resident plan (if any; `L` stays) and permanently bar the
    /// fingerprint from residency. Subsequent requests for the structure
    /// are served by fresh ad-hoc plans that are never retained, so a
    /// poisoned plan can never be re-served. Returns true if a plan was
    /// resident.
    pub fn quarantine(&mut self, fp: StructureFingerprint) -> bool {
        let evicted = self.remove(fp);
        if self.quarantined.insert(fp) {
            self.stats.quarantined += 1;
        }
        evicted
    }

    /// Whether this structure is barred from residency.
    pub fn is_quarantined(&self, fp: StructureFingerprint) -> bool {
        self.quarantined.contains(&fp)
    }

    /// Traffic counters so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Number of resident plans.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no plans are resident.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Bytes currently charged against the budget.
    pub fn bytes_used(&self) -> u64 {
        self.bytes
    }

    /// The configured byte budget.
    pub fn budget(&self) -> u64 {
        self.budget
    }

    /// The spec every cached plan was prepared with.
    pub fn spec(&self) -> PlanSpec {
        self.spec
    }

    /// Whether a plan for this structure is resident (no touch).
    pub fn contains(&self, fp: StructureFingerprint) -> bool {
        self.entries.contains_key(&fp)
    }

    /// The recoverable eviction state: `L` plus every resident entry's
    /// policy state, least recently used first. Stamps are unique, so the
    /// order is total and deterministic. Restoring it — [`restore_entry`]
    /// in this order and [`restore_inflation`] — reproduces every later
    /// eviction decision.
    ///
    /// [`restore_entry`]: PlanCache::restore_entry
    /// [`restore_inflation`]: PlanCache::restore_inflation
    pub fn state(&self) -> ShardState {
        let mut v: Vec<(u64, ResidentEntry)> = self
            .entries
            .iter()
            .map(|(&fp, e)| {
                (
                    e.last_used,
                    ResidentEntry {
                        fp,
                        hits: e.hits,
                        cost_ms: e.cost_ms,
                        priority: e.priority,
                    },
                )
            })
            .collect();
        v.sort_by_key(|&(t, _)| t);
        ShardState {
            inflation: self.inflation,
            resident: v.into_iter().map(|(_, r)| r).collect(),
        }
    }

    /// Re-admit a deterministically rebuilt plan with fresh policy state
    /// (`hits` 1, `cost_ms` its simulated prepare time). See
    /// [`restore_entry`](PlanCache::restore_entry) for what restoring does
    /// and does not count.
    pub fn restore_resident(&mut self, plan: Arc<Plan>) {
        let cost_ms = plan.sim_prepare_ms();
        let entry = ResidentEntry {
            fp: plan.fingerprint,
            hits: 1,
            cost_ms,
            priority: priority(self.inflation, 1, cost_ms, plan.approx_bytes()),
        };
        self.restore_entry(plan, &entry);
    }

    /// Re-admit a deterministically rebuilt plan during recovery with the
    /// persisted `hits`, `cost_ms` and `priority` of `state`, never the
    /// rebuilt plan's own prepare time: a plan rebuilt by patch replay
    /// bills less than the prepare it stands for. The entry takes the
    /// next clock stamp — callers insert in persisted
    /// [`state`](PlanCache::state) order, which restores the relative
    /// recency that ties depend on — and is charged against the budget,
    /// but **no traffic is counted and nothing is evicted**: restoring
    /// state is not traffic, and a restored set was resident together
    /// before the crash so it fits by construction (a plan that does not
    /// fit is dropped, as `admit` would).
    pub fn restore_entry(&mut self, plan: Arc<Plan>, state: &ResidentEntry) {
        let fp = plan.fingerprint;
        if self.entries.contains_key(&fp) || self.quarantined.contains(&fp) {
            return;
        }
        let bytes = plan.approx_bytes();
        if self.bytes + bytes > self.budget {
            return;
        }
        let tick = self.tick();
        self.bytes += bytes;
        self.entries.insert(
            fp,
            Entry {
                plan,
                bytes,
                last_used: tick,
                hits: state.hits,
                cost_ms: state.cost_ms,
                priority: state.priority,
                stale: false,
            },
        );
    }

    /// Restore the persisted inflation clock `L` during recovery.
    pub fn restore_inflation(&mut self, inflation: f64) {
        self.inflation = inflation;
    }

    /// Restore a quarantine registration during recovery, without
    /// counting it in `quarantined` (the persisted statistics already
    /// include it; they are re-seeded wholesale via
    /// [`seed_stats`](PlanCache::seed_stats)).
    pub fn restore_quarantined(&mut self, fp: StructureFingerprint) {
        self.quarantined.insert(fp);
    }

    /// Seed the cumulative statistics from persisted state. Recovery
    /// seeds one shard with the pre-crash totals so the aggregate picks
    /// up exactly where the crashed process left off.
    pub fn seed_stats(&mut self, stats: CacheStats) {
        self.stats = stats;
    }

    /// Aggregate workspace counters over the resident plans — how much
    /// per-request allocation the cached population is amortizing away.
    /// Evicted and rejected plans take their counters with them, so this
    /// reflects the plans still serving.
    pub fn workspace_stats(&self) -> WorkspaceStats {
        let mut s = WorkspaceStats::default();
        for e in self.entries.values() {
            s.add(&e.plan.workspace_stats());
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graph_sparse::{gen, DenseMatrix};

    fn graphs() -> Vec<Csr> {
        vec![
            gen::erdos_renyi(256, 1_000, 1),
            gen::erdos_renyi(256, 1_000, 2),
            gen::erdos_renyi(256, 1_000, 3),
        ]
    }

    #[test]
    fn zero_budget_disables_caching_but_stays_correct() {
        let dev = DeviceSpec::rtx3090();
        let mut cache = PlanCache::new(0, PlanSpec::hybrid());
        let a = &graphs()[0];
        let x = DenseMatrix::random_features(a.nrows, 16, 9);
        let mut outputs = Vec::new();
        for _ in 0..3 {
            let (plan, hit) = cache.get_or_prepare(a, &dev);
            assert!(!hit);
            outputs.push(plan.execute(a, &x, &dev).z);
        }
        assert_eq!(outputs[0], outputs[1]);
        assert_eq!(outputs[1], outputs[2]);
        let s = cache.stats();
        assert_eq!((s.requests, s.hits, s.misses), (3, 0, 3));
        assert_eq!(s.rejected, 3);
        assert_eq!(cache.len(), 0);
        assert_eq!(cache.bytes_used(), 0);
    }

    #[test]
    fn single_plan_larger_than_budget_is_returned_not_retained() {
        let dev = DeviceSpec::rtx3090();
        let a = &graphs()[0];
        // Find the plan's real size, then set the budget just below it.
        let bytes = Plan::prepare(a, PlanSpec::hybrid(), &dev).approx_bytes();
        let mut cache = PlanCache::new(bytes - 1, PlanSpec::hybrid());
        let (plan, hit) = cache.get_or_prepare(a, &dev);
        assert!(!hit);
        assert_eq!(plan.approx_bytes(), bytes);
        assert_eq!(cache.len(), 0);
        assert_eq!(cache.stats().rejected, 1);
        assert_eq!(cache.stats().evictions, 0);
        // At exactly the budget it fits.
        let mut cache = PlanCache::new(bytes, PlanSpec::hybrid());
        cache.get_or_prepare(a, &dev);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.bytes_used(), bytes);
    }

    /// A clone of `base` under fingerprint `id` with rebuild cost
    /// `cost_ms`. Clones of one plan share a byte size, so their
    /// priorities differ only by what a test sets.
    fn fixture(base: &Plan, id: u64, cost_ms: f64) -> Arc<Plan> {
        let mut p = base.clone();
        p.fingerprint = fp(id);
        p.pre.run.time_ms = cost_ms;
        Arc::new(p)
    }

    fn fp(id: u64) -> StructureFingerprint {
        StructureFingerprint { lo: id, hi: id }
    }

    fn base_plan() -> Plan {
        Plan::prepare(&graphs()[0], PlanSpec::hybrid(), &DeviceSpec::rtx3090())
    }

    /// One lookup of fixture `id`: a hit, or a miss that admits it.
    fn lookup(cache: &mut PlanCache, base: &Plan, id: u64, cost_ms: f64) -> bool {
        if cache.touch(fp(id)).is_some() {
            return true;
        }
        cache.admit(fp(id), fixture(base, id, cost_ms));
        false
    }

    fn priority_of(cache: &PlanCache, id: u64) -> f64 {
        cache.entry(fp(id)).expect("resident").priority
    }

    #[test]
    fn gdsf_evicts_the_lowest_priority_and_raises_l_to_it() {
        let base = base_plan();
        let b = base.approx_bytes() as f64;
        let mut cache = PlanCache::new(3 * base.approx_bytes(), PlanSpec::hybrid());
        for (id, cost) in [(1, 3.0), (2, 1.0), (3, 2.0)] {
            lookup(&mut cache, &base, id, cost);
        }
        assert_eq!(cache.state().inflation, 0.0);
        assert_eq!(priority_of(&cache, 2), 1.0 / b);

        // Full. 4 evicts 2, the cheapest per byte, and enters at the new L.
        lookup(&mut cache, &base, 4, 5.0);
        assert_eq!(cache.state().fingerprints(), vec![fp(1), fp(3), fp(4)]);
        let l = 1.0 / b;
        assert_eq!(cache.state().inflation, l);
        assert_eq!(priority_of(&cache, 4), l + 5.0 / b);

        // 5 evicts 3 (2/b): L rises to it, and 5 enters above it.
        lookup(&mut cache, &base, 5, 0.5);
        assert_eq!(cache.state().fingerprints(), vec![fp(1), fp(4), fp(5)]);
        let l = 2.0 / b;
        assert_eq!(cache.state().inflation, l);
        assert_eq!(priority_of(&cache, 5), l + 0.5 / b);

        // 6 evicts 5, the newest entry: its 0.5/b above L is the least.
        lookup(&mut cache, &base, 6, 0.1);
        assert_eq!(cache.state().fingerprints(), vec![fp(1), fp(4), fp(6)]);
        assert_eq!(cache.state().inflation, l + 0.5 / b);
        let s = cache.stats();
        assert_eq!((s.misses, s.evictions, s.hits), (6, 3, 0));
    }

    #[test]
    fn gdsf_evicts_the_cheap_recent_plan_that_lru_would_keep() {
        let base = base_plan();
        let mut cache = PlanCache::new(2 * base.approx_bytes(), PlanSpec::hybrid());
        lookup(&mut cache, &base, 1, 4.0);
        lookup(&mut cache, &base, 2, 1.0);
        assert!(lookup(&mut cache, &base, 2, 1.0), "2 hits");
        // 1 is least recently used, but rebuilding it costs 4/b against
        // 2's two hits × 1/b.
        lookup(&mut cache, &base, 3, 1.0);
        assert_eq!(cache.state().fingerprints(), vec![fp(1), fp(3)]);
    }

    #[test]
    fn a_hit_raises_the_entry_priority() {
        let base = base_plan();
        let b = base.approx_bytes() as f64;
        let budget = 2 * base.approx_bytes();
        let run = |hit_first: bool| {
            let mut cache = PlanCache::new(budget, PlanSpec::hybrid());
            lookup(&mut cache, &base, 1, 1.0);
            lookup(&mut cache, &base, 2, 1.5);
            if hit_first {
                assert!(lookup(&mut cache, &base, 1, 1.0));
                let e = cache.entry(fp(1)).expect("resident");
                assert_eq!((e.hits, e.cost_ms, e.priority), (2, 1.0, 2.0 * 1.0 / b));
            }
            lookup(&mut cache, &base, 3, 1.0);
            cache.state().fingerprints()
        };
        assert_eq!(run(false), vec![fp(2), fp(3)], "1 alone is cheapest");
        assert_eq!(run(true), vec![fp(1), fp(3)], "the hit lifts 1 over 2");
    }

    #[test]
    fn equal_priorities_evict_the_older_stamp() {
        let base = base_plan();
        let mut cache = PlanCache::new(2 * base.approx_bytes(), PlanSpec::hybrid());
        lookup(&mut cache, &base, 1, 1.0);
        lookup(&mut cache, &base, 2, 1.0);
        lookup(&mut cache, &base, 3, 1.0);
        assert_eq!(cache.state().fingerprints(), vec![fp(2), fp(3)]);
    }

    #[test]
    fn admissions_after_both_lookups_missed_evict_deterministically() {
        // Two threads may both miss before either admits, and admit in
        // the other order: the sharded cache prepares outside the shard
        // lock. Each admission takes its own stamp, so the equal-priority
        // tie below goes to 2, admitted first — in every fresh cache,
        // whatever its HashMap's iteration order.
        let base = base_plan();
        for round in 0..64 {
            let mut cache = PlanCache::new(2 * base.approx_bytes(), PlanSpec::hybrid());
            assert!(cache.touch(fp(1)).is_none());
            assert!(cache.touch(fp(2)).is_none());
            cache.admit(fp(2), fixture(&base, 2, 1.0));
            cache.admit(fp(1), fixture(&base, 1, 1.0));
            assert!(cache.touch(fp(3)).is_none());
            cache.admit(fp(3), fixture(&base, 3, 1.0));
            assert!(
                cache.contains(fp(1)) && !cache.contains(fp(2)),
                "round {round}: evicted the wrong plan"
            );
        }
    }

    #[test]
    fn restored_state_reproduces_later_evictions() {
        let base = base_plan();
        let budget = 2 * base.approx_bytes();
        let mut live = PlanCache::new(budget, PlanSpec::hybrid());
        lookup(&mut live, &base, 1, 1.0);
        lookup(&mut live, &base, 2, 3.0);
        lookup(&mut live, &base, 3, 2.0); // evicts 1: L = 1/b
        for _ in 0..4 {
            lookup(&mut live, &base, 3, 2.0);
        }
        let saved = live.state();
        assert!(saved.inflation > 0.0);

        let mut restored = PlanCache::new(budget, PlanSpec::hybrid());
        restored.restore_inflation(saved.inflation);
        let mut fresh = PlanCache::new(budget, PlanSpec::hybrid());
        for e in &saved.resident {
            let plan = fixture(&base, e.fp.lo, e.cost_ms);
            restored.restore_entry(Arc::clone(&plan), e);
            fresh.restore_resident(plan);
        }
        assert_eq!(restored.state(), saved);
        assert_eq!(
            restored.stats(),
            CacheStats::default(),
            "restoring is not traffic"
        );

        // 3's five references outrank 2's one: the live cache and the
        // restored one evict 2; a cache restored without its policy
        // state evicts 3.
        for cache in [&mut live, &mut restored, &mut fresh] {
            lookup(cache, &base, 4, 2.5);
        }
        assert_eq!(live.state().fingerprints(), vec![fp(3), fp(4)]);
        assert_eq!(restored.state(), live.state());
        assert_eq!(fresh.state().fingerprints(), vec![fp(2), fp(4)]);
    }

    #[test]
    fn counters_account_for_every_request() {
        let dev = DeviceSpec::rtx3090();
        let gs = graphs();
        let mut cache = PlanCache::new(u64::MAX, PlanSpec::hybrid());
        for round in 0..4 {
            for g in &gs {
                let (_, hit) = cache.get_or_prepare(g, &dev);
                assert_eq!(hit, round > 0);
            }
        }
        let s = cache.stats();
        assert_eq!(s.requests, 12);
        assert_eq!(s.hits + s.misses, s.requests);
        assert_eq!(s.misses, 3);
        assert_eq!(s.hits, 9);
        assert_eq!(s.evictions, 0);
        assert_eq!(s.rejected, 0);
        assert!((s.hit_rate() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn quarantined_structure_is_never_re_served_from_cache() {
        let dev = DeviceSpec::rtx3090();
        let gs = graphs();
        let fp = StructureFingerprint::of(&gs[0]);
        let mut cache = PlanCache::new(u64::MAX, PlanSpec::hybrid());
        let (poisoned, _) = cache.get_or_prepare(&gs[0], &dev);
        assert!(cache.contains(fp));

        assert!(cache.quarantine(fp), "resident plan must be evicted");
        assert!(!cache.contains(fp));
        assert!(cache.is_quarantined(fp));
        assert_eq!(cache.stats().quarantined, 1);
        // Idempotent: re-quarantining doesn't double-count.
        assert!(!cache.quarantine(fp));
        assert_eq!(cache.stats().quarantined, 1);

        // The structure still gets served — by fresh plans, never the
        // poisoned Arc, never retained.
        for _ in 0..3 {
            let (plan, hit) = cache.get_or_prepare(&gs[0], &dev);
            assert!(!hit);
            assert!(!Arc::ptr_eq(&plan, &poisoned));
            assert!(!cache.contains(fp));
        }
        assert_eq!(cache.stats().quarantine_misses, 3);
        assert_eq!(cache.bytes_used(), 0);

        // Other structures are unaffected.
        let (_, hit) = cache.get_or_prepare(&gs[1], &dev);
        assert!(!hit);
        let (_, hit) = cache.get_or_prepare(&gs[1], &dev);
        assert!(hit);
    }

    #[test]
    fn stale_flag_sticks_until_removal_and_counts_hits() {
        let dev = DeviceSpec::rtx3090();
        let a = &graphs()[0];
        let fp = StructureFingerprint::of(a);
        let mut cache = PlanCache::new(u64::MAX, PlanSpec::hybrid());
        assert!(!cache.mark_stale(fp), "nothing resident yet");
        let (plan, _) = cache.get_or_prepare(a, &dev);
        assert!(cache.peek(fp).is_some());
        assert!(cache.mark_stale(fp));
        // Stale plans keep serving, flagged and counted.
        let (p, stale) = cache.touch(fp).expect("resident");
        assert!(stale);
        assert!(Arc::ptr_eq(&p, &plan));
        assert_eq!(cache.stats().stale_hits, 1);
        // peek does not count anything.
        assert!(cache.peek(fp).is_some());
        let s = cache.stats();
        assert_eq!((s.requests, s.hits), (2, 1));
        // Removal retires the entry without an eviction tick.
        assert!(cache.remove(fp));
        assert!(!cache.remove(fp));
        assert_eq!(cache.bytes_used(), 0);
        assert_eq!(cache.stats().evictions, 0);
    }

    #[test]
    fn reweighted_graph_hits_the_same_plan() {
        let dev = DeviceSpec::rtx3090();
        let a = graphs().remove(0);
        let mut b = a.clone();
        for v in &mut b.vals {
            *v *= 7.0;
        }
        let mut cache = PlanCache::new(u64::MAX, PlanSpec::hybrid());
        let (pa, hit_a) = cache.get_or_prepare(&a, &dev);
        let (pb, hit_b) = cache.get_or_prepare(&b, &dev);
        assert!(!hit_a);
        assert!(hit_b, "same structure must hit regardless of values");
        assert!(Arc::ptr_eq(&pa, &pb));
    }
}
