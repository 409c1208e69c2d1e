//! The structure screen: every graph a serving call carries is validated,
//! and fingerprinted when valid, once per allocation for as long as the
//! plan cache that owns the screen lives.
//!
//! [`SharedPlanCache`](crate::SharedPlanCache) owns one [`Screen`], so
//! every [`Front`](crate::Front) and [`DurableFront`](crate::DurableFront)
//! on one cache shares it: a graph `Arc` submitted on every call of a
//! long-lived client is checked on its first call and recalled on every
//! later one, by every request, cohort lookup, resilient execute, stale
//! mark, patch check and recovery-root scan on it.

use std::collections::HashMap;
use std::sync::{Arc, Weak};

use graph_sparse::{Csr, CsrError, StructureFingerprint};
use hc_parallel::sync::Mutex;

/// Dead entries the memo tolerates before it first prunes, and the slack
/// above twice the survivors after every prune.
const PRUNE_SLACK: usize = 64;

/// Screen traffic of one cache since it was built. Not persisted: a
/// recovered cache starts with an empty memo and screens each graph again.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScreenStats {
    /// Graph allocations validated, and fingerprinted when valid.
    pub screens: u64,
    /// Screens answered from the memo.
    pub recalls: u64,
    /// Entries the memo holds now, including dead ones not yet pruned.
    pub entries: usize,
}

/// One screened allocation: a weak handle on it and its verdict.
struct Entry {
    graph: Weak<Csr>,
    verdict: Result<StructureFingerprint, CsrError>,
}

/// The memo behind the screen's lock.
struct Memo {
    /// Keyed by allocation address (`Arc::as_ptr`).
    entries: HashMap<usize, Entry>,
    /// The size at which the next insert first prunes dead entries.
    prune_at: usize,
    screens: u64,
    recalls: u64,
}

/// A per-cache memo of structure screens, keyed by graph allocation
/// (`Arc::as_ptr`). Each entry holds a [`Weak`] on its allocation
/// together with the verdict: the fingerprint, or the [`CsrError`] the
/// validation failed with. A lookup hits only when the weak handle
/// upgrades to the caller's own `Arc` (`Arc::ptr_eq`); two `Arc`s with
/// equal structure but different values are separate allocations and are
/// each validated (validation reads the values).
///
/// **Soundness.** A verdict stays true for its allocation while the entry
/// lives, because while an entry's `Weak` lives:
///
/// - the allocation is never freed, so its address cannot be reused by
///   another graph;
/// - `Arc::get_mut` on it returns `None` (a weak reference makes it
///   shared);
/// - `Arc::make_mut` on it moves or clones the value to a new
///   allocation, which is screened afresh on its first use.
///
/// So a screened allocation's structure and values cannot change under
/// its entry. What clients see: while the cache lives, `Arc::get_mut` on
/// a graph it has screened returns `None`, and `Arc::make_mut` copies.
///
/// **Locking.** The memo's lock (`screen-memo`) is a leaf: it is held
/// only to probe or to insert, never together with a shard or registry
/// lock and never across execution. Validation and hashing run outside
/// it, so two callers racing on one new allocation may both screen it;
/// their verdicts are equal and the memo keeps one entry.
///
/// **Bound.** An insert that finds the memo at its prune mark first drops
/// every entry whose allocation has died, then moves the mark to twice the
/// survivors plus 64. So the memo never holds more than `2·P + 64`
/// entries, where `P` is the largest number of screened allocations alive
/// at once, and pruning costs amortized O(1) per screen.
pub(crate) struct Screen {
    memo: Mutex<Memo>,
}

impl Default for Screen {
    fn default() -> Screen {
        Screen {
            memo: Mutex::named(
                "screen-memo",
                Memo {
                    entries: HashMap::new(),
                    prune_at: PRUNE_SLACK,
                    screens: 0,
                    recalls: 0,
                },
            ),
        }
    }
}

impl Screen {
    /// `g`'s fingerprint, or the typed error its validation failed with:
    /// computed on the first call for this allocation, recalled after.
    pub(crate) fn graph(&self, g: &Arc<Csr>) -> Result<StructureFingerprint, CsrError> {
        let key = Arc::as_ptr(g) as usize;
        if let Some(verdict) = self.memo.lock().recall(key, g) {
            return verdict;
        }
        let verdict = g.validate().map(|()| StructureFingerprint::of(g));
        self.memo.lock().insert(key, g, verdict.clone());
        verdict
    }

    /// The memo's traffic counters and current size.
    pub(crate) fn stats(&self) -> ScreenStats {
        let m = self.memo.lock();
        ScreenStats {
            screens: m.screens,
            recalls: m.recalls,
            entries: m.entries.len(),
        }
    }
}

impl Memo {
    fn recall(
        &mut self,
        key: usize,
        g: &Arc<Csr>,
    ) -> Option<Result<StructureFingerprint, CsrError>> {
        let e = self.entries.get(&key)?;
        // The caller holds `g`, so this upgrade never drops the last
        // strong reference under the lock.
        if !e.graph.upgrade().is_some_and(|live| Arc::ptr_eq(&live, g)) {
            return None;
        }
        self.recalls += 1;
        Some(e.verdict.clone())
    }

    fn insert(
        &mut self,
        key: usize,
        g: &Arc<Csr>,
        verdict: Result<StructureFingerprint, CsrError>,
    ) {
        self.screens += 1;
        if self.entries.len() >= self.prune_at {
            self.entries.retain(|_, e| e.graph.strong_count() > 0);
            self.prune_at = 2 * self.entries.len() + PRUNE_SLACK;
        }
        self.entries.insert(
            key,
            Entry {
                graph: Arc::downgrade(g),
                verdict,
            },
        );
    }
}
