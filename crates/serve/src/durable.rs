//! Crash-safe serving: the [`DurableFront`] wraps a [`Front`] with a
//! write-ahead log ([`crate::wal`]) and periodic snapshots
//! ([`crate::snapshot`]) so that a crash at *any* point — mid-epoch,
//! between a WAL append and its plan swap, mid-snapshot — recovers to a
//! state whose remaining execution is bit-identical to the uncrashed
//! run.
//!
//! ## What is logged vs. rebuilt
//!
//! The log records *decisions*, not *derived state*: every structurally
//! effective mutation goes on the WAL (base fingerprint, post-apply
//! fingerprint, the delta itself) **before** the patched plan is swapped
//! into the cache, and every epoch barrier appends an fsynced marker
//! carrying the cumulative pre-aggregation counters, cache statistics,
//! per-shard eviction state and the quarantine set. Plans are *never*
//! serialized: they are deterministic functions of (graph, spec, device)
//! and are rebuilt warm on recovery — `Plan::prepare` at the nearest
//! root-materialized graph, then `Plan::patch` replayed along the logged
//! delta chain, each link verified against its logged fingerprint.
//!
//! ## Delivery = durability
//!
//! An epoch's responses are handed to the client in
//! [`EpochSink::epoch_end`] immediately after the marker fsync, with no
//! crash point between the two. Everything delivered is therefore
//! covered by a durable marker, and everything covered by a marker was
//! delivered: recovery resumes at `marker.epoch + 1` and never
//! re-delivers or drops an epoch.
//!
//! Delivery is a move: the front gives up each epoch's responses and
//! mutation outcomes at the barrier, so every served output exists once.
//! A completed attempt's responses live in [`RunAttempt::report`]; a
//! crashed attempt's stay in [`RunAttempt::delivered`] and
//! [`RunAttempt::delivered_mutations`]. [`run_to_completion`] merges from
//! whichever field holds them.
//!
//! ## Idempotent replay
//!
//! Replay is fingerprint-gated: a delta record whose post-apply graph is
//! already materialized is skipped, so records duplicated by a
//! crash-rerun cycle (an intact-but-unmarked append survives
//! [`Wal::open_append`], then the re-run appends it again) are applied
//! exactly once. [`RecoveryStats::double_applied`] counts violations and
//! is asserted zero by the restart-equivalence suite.

use std::collections::{HashMap, HashSet};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use gpu_sim::{crash_requested, CrashConfig, CrashScope, CrashSite, DeviceSpec};
use graph_sparse::{Csr, StructureFingerprint};
use hc_core::{Plan, PlanSpec};

use crate::front::{
    EpochEnd, EpochSink, Front, FrontCounters, FrontEvent, FrontReport, FrontResponse,
    MutationOutcome, Screen,
};
use crate::snapshot::Snapshot;
use crate::wal::{DeltaRecord, EpochMarker, RecoveryError, Wal};

/// Where the durability layer keeps its on-disk state.
#[derive(Debug, Clone)]
pub struct DurabilityConfig {
    /// The write-ahead log file.
    pub wal_path: PathBuf,
    /// The snapshot file (written atomically, temp + rename).
    pub snapshot_path: PathBuf,
    /// Snapshot cadence in epochs (0 ⇒ never snapshot; recovery then
    /// replays the WAL from trace-root graphs alone).
    pub snapshot_every: u64,
}

/// What one recovery did, for the `recovery` bench block and the chaos
/// suite's invariants.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RecoveryStats {
    /// First epoch the resumed run executes (`last marker + 1`).
    pub resume_epoch: u64,
    /// Intact-but-unmarked records rolled back past the last marker.
    pub rolled_back_records: u64,
    /// Torn bytes truncated off the WAL tail.
    pub torn_bytes: u64,
    /// Durable delta records re-applied to materialize graphs.
    pub reapplied_deltas: u64,
    /// Durable delta records skipped because their post-apply graph was
    /// already materialized (idempotent replay).
    pub skipped_duplicates: u64,
    /// Deltas applied more than once — must be zero; the
    /// restart-equivalence suite asserts it.
    pub double_applied: u64,
    /// Plans rebuilt by a full `Plan::prepare`.
    pub full_prepares: u64,
    /// Plan rebuild steps served by `Plan::patch` replay.
    pub patch_replays: u64,
    /// Plans restored into the cache, total.
    pub restored_plans: u64,
    /// Graphs ingested from the snapshot.
    pub restored_graphs: u64,
    /// Simulated cost of the warm plan rebuild (prepare + patch replay);
    /// the bench compares it against re-running the completed prefix
    /// cold.
    pub recovery_sim_ms: f64,
}

/// Why a [`DurableFront::run`] attempt stopped before the trace ended.
enum SinkHalt {
    /// An injected crash fired; unwound to the recovery boundary.
    Crashed(CrashSite),
    /// A real durability error (WAL I/O, encoding) — not recoverable by
    /// rerunning.
    Error(RecoveryError),
}

/// One [`DurableFront::run`] attempt: either the trace completed
/// (`report` is `Some`) or an injected crash stopped it (`crash` is
/// `Some`). What reached the client lives in exactly one place: a
/// completed attempt's responses and mutation outcomes in `report`, a
/// crashed attempt's in `delivered` and `delivered_mutations` — crashed
/// attempts keep their delivered epochs, exactly like a real client
/// would.
pub struct RunAttempt {
    /// The attempt's report over the epochs it ran, when it completed. It
    /// holds the only copy of every response the attempt delivered.
    pub report: Option<FrontReport>,
    /// Responses delivered at epoch barriers before an injected crash
    /// (durable ⇒ delivered). Empty when the attempt completed: its
    /// responses live in `report`.
    pub delivered: Vec<FrontResponse>,
    /// Mutation outcomes delivered at epoch barriers before an injected
    /// crash. Empty when the attempt completed, like `delivered`.
    pub delivered_mutations: Vec<MutationOutcome>,
    /// Cumulative pre-aggregation counters at the last completed barrier.
    pub last_counters: FrontCounters,
    /// The crash site, when an injected crash stopped the attempt.
    pub crash: Option<CrashSite>,
}

/// A completed crash/recover/resume cycle from [`run_to_completion`].
pub struct RunOutcome {
    /// The merged report: delivered responses from every attempt,
    /// aggregated exactly like an uncrashed [`Front::run_events`].
    pub report: FrontReport,
    /// Attempts executed (1 ⇒ no crash fired).
    pub attempts: u64,
    /// Sites of the injected crashes, in firing order.
    pub crashes: Vec<CrashSite>,
    /// Per-recovery statistics, one entry per crash.
    pub recoveries: Vec<RecoveryStats>,
    /// Total crash points encountered across every attempt; with
    /// [`CrashConfig::off`] this is the schedule horizon for a sweep.
    pub crash_points: u64,
}

/// A [`Front`] whose mutations are write-ahead logged and whose
/// recoverable state snapshots atomically. Build with
/// [`create`](DurableFront::create) (fresh WAL) or
/// [`recover`](DurableFront::recover) (rebuild from disk), then
/// [`run`](DurableFront::run) the trace.
pub struct DurableFront {
    front: Front,
    wal: Wal,
    cfg: DurabilityConfig,
    resume_epoch: usize,
    counters_seed: FrontCounters,
    /// Graph materializations by fingerprint: trace roots plus every
    /// graph produced by a logged delta. Snapshots clone resident
    /// graphs out of this map.
    graphs: HashMap<StructureFingerprint, Arc<Csr>>,
}

impl DurableFront {
    /// Fresh durable front: truncates/creates the WAL at
    /// `cfg.wal_path`. Any existing snapshot is superseded once the
    /// first new one is written.
    pub fn create(front: Front, cfg: DurabilityConfig) -> Result<DurableFront, RecoveryError> {
        let wal = Wal::create(&cfg.wal_path)?;
        Ok(DurableFront {
            front,
            wal,
            cfg,
            resume_epoch: 0,
            counters_seed: FrontCounters::default(),
            graphs: HashMap::new(),
        })
    }

    /// Rebuild a durable front from disk after a crash: roll the WAL
    /// back to its last fsynced marker, ingest the snapshot if one
    /// exists, re-materialize graphs by fingerprint-gated delta replay,
    /// rebuild resident plans warm (prepare at the nearest root, patch
    /// forward along the logged chain) and seed counters so the resumed
    /// run continues the uncrashed numbering.
    ///
    /// `front` must be fresh (its cache is populated here) and `events`
    /// must be the same trace the crashed run was executing — the trace
    /// is the event source mutations are re-applied from.
    pub fn recover(
        front: Front,
        cfg: DurabilityConfig,
        events: &[FrontEvent],
        dev: &DeviceSpec,
    ) -> Result<(DurableFront, RecoveryStats), RecoveryError> {
        let (wal, replay) = Wal::open_append(&cfg.wal_path)?;
        let mut stats = RecoveryStats {
            rolled_back_records: replay.rolled_back_records,
            torn_bytes: replay.torn_bytes,
            ..RecoveryStats::default()
        };
        let marker = match replay.last_marker() {
            Some(m) => m.clone(),
            None => {
                // Nothing durable yet: the crash predated the first
                // epoch barrier. Start the trace from scratch.
                return Ok((
                    DurableFront {
                        front,
                        wal,
                        cfg,
                        resume_epoch: 0,
                        counters_seed: FrontCounters::default(),
                        graphs: HashMap::new(),
                    },
                    stats,
                ));
            }
        };
        if marker.shard_residency.len() != front.cache().shard_count() {
            return Err(RecoveryError::ShardCountMismatch {
                expected: marker.shard_residency.len() as u32,
                found: front.cache().shard_count() as u32,
            });
        }

        // Root-materialized graphs: available without applying any
        // delta — the trace's own graphs plus the snapshot's.
        let mut roots = trace_graphs(events, &mut Screen::default());
        if cfg.snapshot_path.exists() {
            let snap = Snapshot::load(&cfg.snapshot_path)?;
            stats.restored_graphs = snap.graphs.len() as u64;
            for (fp, g) in snap.graphs {
                roots.entry(fp).or_insert_with(|| Arc::new(g));
            }
        }

        // Materialize every durable delta's post-apply graph,
        // fingerprint-gated so duplicated records apply exactly once.
        let mut mat = roots.clone();
        let mut links: HashMap<StructureFingerprint, &DeltaRecord> = HashMap::new();
        let mut applied: HashSet<u64> = HashSet::new();
        for rec in replay.durable_deltas() {
            links.entry(rec.new_fp).or_insert(rec);
            if mat.contains_key(&rec.new_fp) {
                stats.skipped_duplicates += 1;
                continue;
            }
            let base = mat
                .get(&rec.base_fp)
                .ok_or(RecoveryError::MissingBase(rec.base_fp))?;
            let g = rec.delta.apply(base).map_err(RecoveryError::InvalidDelta)?;
            let got = StructureFingerprint::of(&g);
            if got != rec.new_fp {
                return Err(RecoveryError::FingerprintMismatch {
                    expected: rec.new_fp,
                    got,
                });
            }
            if !applied.insert(rec.trace_index) {
                stats.double_applied += 1;
            }
            stats.reapplied_deltas += 1;
            mat.insert(rec.new_fp, Arc::new(g));
        }

        // Seed the cache: statistics, quarantine lineage, then each
        // shard's inflation clock and resident plans in logged recency
        // order (least recently used first), each with its logged hits,
        // cost and priority, so eviction behaves as if the cache never
        // went away. The policy state comes from the marker, never from
        // the rebuilt plan: a plan rebuilt by patch replay bills less
        // than the prepare a miss would pay.
        front.cache().seed_stats(marker.cache);
        front.cache().restore_quarantine(&marker.quarantine);
        let spec = front.cache().spec();
        for (i, shard) in marker.shard_residency.iter().enumerate() {
            front.cache().restore_inflation(i, shard.inflation);
            for entry in &shard.resident {
                let plan = rebuild_plan(entry.fp, &roots, &mat, &links, spec, dev, &mut stats)?;
                stats.restored_plans += 1;
                front.cache().restore_entry(Arc::new(plan), entry);
            }
        }

        stats.resume_epoch = marker.epoch + 1;
        Ok((
            DurableFront {
                front,
                wal,
                cfg,
                resume_epoch: (marker.epoch + 1) as usize,
                counters_seed: marker.counters,
                graphs: mat,
            },
            stats,
        ))
    }

    /// The wrapped front.
    pub fn front(&self) -> &Front {
        &self.front
    }

    /// First epoch [`run`](DurableFront::run) will execute.
    pub fn resume_epoch(&self) -> usize {
        self.resume_epoch
    }

    /// Run (or resume) the trace under durability hooks. An injected
    /// crash is *not* an error: the attempt comes back with
    /// [`RunAttempt::crash`] set and whatever it delivered before the
    /// crash. `Err` is reserved for genuine durability failures.
    pub fn run(
        &mut self,
        events: &[FrontEvent],
        dev: &DeviceSpec,
    ) -> Result<RunAttempt, RecoveryError> {
        let t0 = Instant::now();
        // One screen for the whole call: collecting the trace's graphs
        // fills it, and the front reuses it for every request.
        let mut screen = Screen::default();
        for (fp, g) in trace_graphs(events, &mut screen) {
            self.graphs.entry(fp).or_insert(g);
        }
        let mut sink = DurableSink {
            wal: &mut self.wal,
            cache: self.front.cache(),
            cfg: &self.cfg,
            graphs: &mut self.graphs,
            delivered: Vec::new(),
            delivered_mutations: Vec::new(),
            last_counters: self.counters_seed,
        };
        match self.front.run_events_from(
            events,
            dev,
            self.resume_epoch,
            self.counters_seed,
            &mut screen,
            &mut sink,
        ) {
            Ok(counters) => Ok(RunAttempt {
                report: Some(self.front.assemble_report(
                    sink.delivered,
                    counters,
                    sink.delivered_mutations,
                    t0,
                )),
                delivered: Vec::new(),
                delivered_mutations: Vec::new(),
                last_counters: sink.last_counters,
                crash: None,
            }),
            Err(SinkHalt::Crashed(site)) => Ok(RunAttempt {
                report: None,
                delivered: sink.delivered,
                delivered_mutations: sink.delivered_mutations,
                last_counters: sink.last_counters,
                crash: Some(site),
            }),
            Err(SinkHalt::Error(e)) => Err(e),
        }
    }
}

/// Run a trace to completion under an injected crash schedule:
/// create → run; on a crash, recover from disk with a *fresh* front
/// (in-memory state is deliberately discarded) and resume; merge what
/// every attempt delivered into one report aggregated exactly like an
/// uncrashed run.
///
/// `mk_front` must build equivalent fronts (same cache budget, spec,
/// shard count and config) — recovery checks the shard count and trusts
/// the rest.
pub fn run_to_completion(
    mk_front: &dyn Fn() -> Front,
    cfg: &DurabilityConfig,
    events: &[FrontEvent],
    dev: &DeviceSpec,
    crash: CrashConfig,
) -> Result<RunOutcome, RecoveryError> {
    let t0 = Instant::now();
    let scope = CrashScope::install(crash);
    let mut delivered: Vec<FrontResponse> = Vec::new();
    let mut delivered_mutations: Vec<MutationOutcome> = Vec::new();
    let mut crashes: Vec<CrashSite> = Vec::new();
    let mut recoveries: Vec<RecoveryStats> = Vec::new();
    let mut attempts = 0u64;
    let mut df = DurableFront::create(mk_front(), cfg.clone())?;
    loop {
        attempts += 1;
        if attempts > 8 {
            // A crash fires at most once per scope, so this loop
            // converges in two attempts; more means the WAL is not
            // advancing the resume point.
            return Err(RecoveryError::Malformed {
                offset: 0,
                what: "crash/recovery loop did not converge",
            });
        }
        let attempt = df.run(events, dev)?;
        // Each delivered response lives in one field: a crashed
        // attempt's in `delivered`, the completing attempt's in its
        // report.
        delivered.extend(attempt.delivered);
        delivered_mutations.extend(attempt.delivered_mutations);
        if let Some(rep) = attempt.report {
            delivered.extend(rep.responses);
            delivered_mutations.extend(rep.mutations);
            delivered.sort_by_key(|r| r.trace_index);
            delivered_mutations.sort_by_key(|m| m.trace_index);
            let report =
                df.front
                    .assemble_report(delivered, attempt.last_counters, delivered_mutations, t0);
            return Ok(RunOutcome {
                report,
                attempts,
                crashes,
                recoveries,
                crash_points: scope.points(),
            });
        }
        crashes.extend(attempt.crash);
        let (next, stats) = DurableFront::recover(mk_front(), cfg.clone(), events, dev)?;
        recoveries.push(stats);
        df = next;
    }
}

/// Every valid graph the trace itself carries, by fingerprint:
/// serve-request graphs and mutation bases. These are "root-materialized"
/// — recovery gets them for free, without applying any delta. Each
/// distinct `Arc` is screened once; a graph that fails validation is
/// skipped, because the front never serves it, so it is never a
/// recovery root.
fn trace_graphs<'t>(
    events: &'t [FrontEvent],
    screen: &mut Screen<'t>,
) -> HashMap<StructureFingerprint, Arc<Csr>> {
    let mut m: HashMap<StructureFingerprint, Arc<Csr>> = HashMap::new();
    for ev in events {
        let g = match ev {
            FrontEvent::Serve(fr) => &fr.request.graph,
            FrontEvent::Mutate(mu) => &mu.base,
        };
        if let Ok(fp) = screen.graph(g) {
            m.entry(fp).or_insert_with(|| Arc::clone(g));
        }
    }
    m
}

/// Rebuild one resident plan warm: walk the logged delta chain back
/// from `fp` to the nearest root-materialized graph, `Plan::prepare`
/// there, then `Plan::patch` forward along the chain, verifying each
/// link's fingerprint against the log. Any defect (broken chain, patch
/// refusal, fingerprint drift) falls back to a full prepare at the tip.
fn rebuild_plan(
    fp: StructureFingerprint,
    roots: &HashMap<StructureFingerprint, Arc<Csr>>,
    mat: &HashMap<StructureFingerprint, Arc<Csr>>,
    links: &HashMap<StructureFingerprint, &DeltaRecord>,
    spec: PlanSpec,
    dev: &DeviceSpec,
    stats: &mut RecoveryStats,
) -> Result<Plan, RecoveryError> {
    let mut chain: Vec<&DeltaRecord> = Vec::new();
    let mut cur = fp;
    let mut seen: HashSet<StructureFingerprint> = HashSet::new();
    while !roots.contains_key(&cur) {
        if !seen.insert(cur) {
            break;
        }
        match links.get(&cur) {
            Some(&rec) => {
                chain.push(rec);
                cur = rec.base_fp;
            }
            None => break,
        }
    }
    if let Some(root) = roots.get(&cur) {
        let mut plan = Plan::prepare(root, spec, dev);
        stats.full_prepares += 1;
        stats.recovery_sim_ms += plan.sim_prepare_ms();
        let mut replayed = true;
        for rec in chain.iter().rev() {
            let Some(base) = mat.get(&rec.base_fp) else {
                replayed = false;
                break;
            };
            match plan.patch(base, &rec.delta, dev) {
                Ok(p) if p.fingerprint == rec.new_fp => {
                    stats.patch_replays += 1;
                    stats.recovery_sim_ms += p.sim_prepare_ms();
                    plan = p;
                }
                _ => {
                    replayed = false;
                    break;
                }
            }
        }
        if replayed && plan.fingerprint == fp {
            return Ok(plan);
        }
    }
    let tip = mat.get(&fp).ok_or(RecoveryError::MissingBase(fp))?;
    let plan = Plan::prepare(tip, spec, dev);
    stats.full_prepares += 1;
    stats.recovery_sim_ms += plan.sim_prepare_ms();
    Ok(plan)
}

/// The durability hooks [`Front::run_events_from`] calls at its
/// recovery boundaries. Crash points are polled in a fixed order —
/// mid-epoch, then per mutation (mid-append, between append and swap),
/// then mid-snapshot on snapshot epochs — so a seeded schedule is a
/// deterministic function of the trace.
struct DurableSink<'a> {
    wal: &'a mut Wal,
    cache: &'a crate::shared::SharedPlanCache,
    cfg: &'a DurabilityConfig,
    graphs: &'a mut HashMap<StructureFingerprint, Arc<Csr>>,
    delivered: Vec<FrontResponse>,
    delivered_mutations: Vec<MutationOutcome>,
    last_counters: FrontCounters,
}

impl EpochSink for DurableSink<'_> {
    type Halt = SinkHalt;

    fn mid_epoch(&mut self, _epoch: usize) -> Result<(), SinkHalt> {
        if crash_requested(CrashSite::MidEpoch) {
            return Err(SinkHalt::Crashed(CrashSite::MidEpoch));
        }
        Ok(())
    }

    fn log_mutation(
        &mut self,
        epoch: usize,
        trace_index: usize,
        base_fp: StructureFingerprint,
        new_fp: StructureFingerprint,
        delta: &graph_sparse::DeltaCsr,
    ) -> Result<(), SinkHalt> {
        let rec = DeltaRecord {
            epoch: epoch as u64,
            trace_index: trace_index as u64,
            base_fp,
            new_fp,
            delta: delta.clone(),
        };
        if crash_requested(CrashSite::MidWalAppend) {
            // Die with the record half-written: the torn tail must roll
            // back on recovery.
            self.wal
                .append_delta_torn(&rec, usize::MAX)
                .map_err(SinkHalt::Error)?;
            return Err(SinkHalt::Crashed(CrashSite::MidWalAppend));
        }
        self.wal.append_delta(&rec).map_err(SinkHalt::Error)?;
        if !self.graphs.contains_key(&new_fp) {
            if let Some(base) = self.graphs.get(&base_fp) {
                if let Ok(g) = delta.apply(base) {
                    self.graphs.insert(new_fp, Arc::new(g));
                }
            }
        }
        if crash_requested(CrashSite::BetweenAppendAndSwap) {
            // The record is intact on disk but its swap never happened
            // and no marker covers it: recovery must roll it back, and
            // the re-run re-appends it (idempotent replay absorbs the
            // duplicate).
            return Err(SinkHalt::Crashed(CrashSite::BetweenAppendAndSwap));
        }
        Ok(())
    }

    fn epoch_end(&mut self, end: EpochEnd) -> Result<(), SinkHalt> {
        let (shard_residency, quarantine) = self.cache.collect_recoverable_state();
        let marker = EpochMarker {
            epoch: end.epoch as u64,
            counters: end.counters,
            cache: self.cache.stats(),
            shard_residency,
            quarantine,
        };
        self.wal.append_marker(&marker).map_err(SinkHalt::Error)?;
        // Durable ⇒ delivered: no crash point between the marker fsync
        // above and handing this epoch's responses to the client. They
        // move, so the client holds the only copy.
        self.delivered.extend(end.responses);
        self.delivered_mutations.extend(end.mutations);
        self.last_counters = end.counters;

        if self.cfg.snapshot_every > 0
            && (end.epoch as u64 + 1).is_multiple_of(self.cfg.snapshot_every)
        {
            if crash_requested(CrashSite::MidSnapshot) {
                // A crash mid-snapshot leaves a stray temp file but
                // never replaces the previous snapshot (temp + rename).
                let mut tmp = self.cfg.snapshot_path.as_os_str().to_owned();
                tmp.push(".tmp");
                let _ = std::fs::write(PathBuf::from(tmp), b"torn snapshot write");
                return Err(SinkHalt::Crashed(CrashSite::MidSnapshot));
            }
            let mut graphs: Vec<(StructureFingerprint, Csr)> = Vec::new();
            for shard in &marker.shard_residency {
                for entry in &shard.resident {
                    if let Some(g) = self.graphs.get(&entry.fp) {
                        graphs.push((entry.fp, (**g).clone()));
                    }
                }
            }
            let snap = Snapshot {
                epoch: marker.epoch,
                counters: marker.counters,
                cache: marker.cache,
                graphs,
                shard_residency: marker.shard_residency,
                quarantine: marker.quarantine,
            };
            snap.save(&self.cfg.snapshot_path)
                .map_err(SinkHalt::Error)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::front::Request;
    use crate::front::{FrontConfig, FrontRequest, TenantId};
    use graph_sparse::{gen, DenseMatrix};

    #[test]
    fn resumed_report_amortizes_over_its_own_responses() {
        let dev = DeviceSpec::rtx3090();
        let gs: Vec<Arc<Csr>> = (0..3)
            .map(|i| Arc::new(gen::erdos_renyi(128, 600, 40 + i)))
            .collect();
        let events: Vec<FrontEvent> = (0..48)
            .map(|i| {
                FrontEvent::Serve(FrontRequest {
                    tenant: TenantId((i % 4) as u32),
                    request: Request {
                        graph: Arc::clone(&gs[i % 3]),
                        features: DenseMatrix::random_features(128, 8, i as u64),
                    },
                })
            })
            .collect();
        let mk_front = || {
            Front::new(
                1 << 30,
                PlanSpec::hybrid(),
                2,
                FrontConfig {
                    workers: 2,
                    arrivals_per_epoch: 16,
                    ..Default::default()
                },
            )
        };
        let dir = std::env::temp_dir();
        let cfg = DurabilityConfig {
            wal_path: dir.join(format!("hc-amortized-{}.wal", std::process::id())),
            snapshot_path: dir.join(format!("hc-amortized-{}.snap", std::process::id())),
            snapshot_every: 0,
        };

        // Crash point 1 is epoch 1's mid-epoch point: epoch 0 is durable
        // and delivered, the resumed run serves epochs 1 and 2.
        let mut df = DurableFront::create(mk_front(), cfg.clone()).expect("create the WAL");
        let scope = CrashScope::install(CrashConfig::at(1));
        let crashed = df.run(&events, &dev).expect("run to the injected crash");
        drop(scope);
        assert_eq!(crashed.crash, Some(CrashSite::MidEpoch));
        assert_eq!(crashed.delivered.len(), 16);
        let (mut df, _) =
            DurableFront::recover(mk_front(), cfg.clone(), &events, &dev).expect("recover");
        let resumed = df.run(&events, &dev).expect("resumed run");
        let _ = std::fs::remove_file(&cfg.wal_path);
        let rep = resumed.report.expect("no crash is injected");

        assert_eq!(rep.counters.admitted, 48, "counters are cumulative");
        let admitted: Vec<f64> = rep
            .responses
            .iter()
            .filter(|r| !r.is_rejected())
            .map(|r| r.prepare_sim_ms + r.exec_sim_ms + r.wasted_sim_ms)
            .collect();
        assert_eq!(admitted.len(), 32, "the report holds epochs 1 and 2");
        let mean = admitted.iter().sum::<f64>() / 32.0;
        assert!(mean > 0.0);
        assert_eq!(rep.amortized_sim_ms(), mean);
    }
}
