//! Corruption suite for the durability formats: hostile bytes fed to
//! the WAL replayer and the snapshot loader must come back as a typed
//! [`RecoveryError`] (or, for a WAL tail, a clean rollback to the last
//! fsync marker) — never a panic, never a silently wrong recovery.
//!
//! Pinned defect classes: truncation at any offset, single-bit flips
//! anywhere in the file, whole records duplicated, and records whose
//! logged post-apply fingerprint disagrees with the delta.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use gpu_sim::DeviceSpec;
use graph_sparse::{gen, DeltaCsr, StructureFingerprint};
use hc_core::PlanSpec;
use hc_serve::{
    CacheStats, DeltaRecord, DurabilityConfig, DurableFront, EpochMarker, Front, FrontConfig,
    FrontCounters, RecoveryError, ResidentEntry, ShardState, Snapshot, Wal, WalRecord,
};
use proptest::prelude::*;

fn scratch(name: &str) -> PathBuf {
    // A fresh path per call: the proptests run in parallel and build the
    // same-sized WAL at the same time.
    static CALLS: AtomicUsize = AtomicUsize::new(0);
    let call = CALLS.fetch_add(1, Ordering::Relaxed);
    let mut p = std::env::temp_dir();
    p.push(format!(
        "hc-corrupt-{}-{call}-{name}.bin",
        std::process::id()
    ));
    p
}

/// A shard's eviction state with `fps` resident, least recently used
/// first, each admitted once at a 0.05 ms rebuild cost.
fn shard(fps: &[StructureFingerprint]) -> ShardState {
    ShardState {
        inflation: 0.0,
        resident: fps
            .iter()
            .map(|&fp| ResidentEntry {
                fp,
                hits: 1,
                cost_ms: 0.05,
                priority: 0.05 / 4096.0,
            })
            .collect(),
    }
}

/// One guaranteed-absent edge of `a`, as an insert delta.
fn free_cell_delta(a: &graph_sparse::Csr) -> DeltaCsr {
    let (r, c) = (0..a.nrows as u32)
        .flat_map(|r| (0..a.ncols as u32).map(move |c| (r, c)))
        .find(|&(r, c)| !a.row_cols(r as usize).contains(&c))
        .expect("graph has a free cell");
    DeltaCsr::new(a.nrows, a.ncols, vec![(r, c, 1.0)], vec![]).expect("valid")
}

/// A healthy WAL with `n` delta records and a marker every third
/// record, returned as raw bytes.
fn healthy_wal(n: usize) -> Vec<u8> {
    let path = scratch(&format!("mk{n}"));
    let mut wal = Wal::create(&path).expect("create");
    for i in 0..n {
        let g = gen::erdos_renyi(48, 180, 40 + i as u64);
        let base_fp = StructureFingerprint::of(&g);
        let delta = free_cell_delta(&g);
        let new_fp = StructureFingerprint::of(&delta.apply(&g).expect("applies"));
        wal.append_delta(&DeltaRecord {
            epoch: i as u64,
            trace_index: i as u64,
            base_fp,
            new_fp,
            delta,
        })
        .expect("append");
        if i % 3 == 2 {
            wal.append_marker(&EpochMarker {
                epoch: i as u64,
                counters: FrontCounters::default(),
                cache: CacheStats::default(),
                shard_residency: vec![shard(&[base_fp]), shard(&[]), shard(&[new_fp]), shard(&[])],
                quarantine: vec![],
            })
            .expect("marker");
        }
    }
    drop(wal);
    let bytes = std::fs::read(&path).expect("read back");
    let _ = std::fs::remove_file(&path);
    bytes
}

/// A healthy snapshot as raw bytes.
fn healthy_snapshot() -> Vec<u8> {
    let g = gen::erdos_renyi(64, 256, 7);
    let fp = StructureFingerprint::of(&g);
    Snapshot {
        epoch: 5,
        counters: FrontCounters::default(),
        cache: CacheStats::default(),
        graphs: vec![(fp, g)],
        shard_residency: vec![shard(&[fp]), shard(&[])],
        quarantine: vec![],
    }
    .to_bytes()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Truncating a WAL anywhere yields either a clean replay (rolled
    /// back to the last marker the truncated file still contains) or a
    /// typed hard error for a mangled header — never a panic, and never
    /// a replayed record past the cut.
    #[test]
    fn wal_truncation_never_panics(n in 3usize..8, cut_frac in 0.0f64..1.0) {
        let bytes = healthy_wal(n);
        let cut = ((bytes.len() as f64) * cut_frac) as usize;
        let truncated = &bytes[..cut.min(bytes.len())];
        match Wal::replay_bytes(truncated) {
            Ok(replay) => {
                // Whatever survived must be a prefix of the healthy log.
                let full = Wal::replay_bytes(&bytes).expect("healthy log replays");
                prop_assert!(replay.records.len() <= full.records.len());
                for (got, want) in replay.records.iter().zip(&full.records) {
                    prop_assert_eq!(got, want);
                }
                if cut < bytes.len() {
                    prop_assert!(
                        replay.tail_defect.is_some() || replay.records.len() < full.records.len()
                            || replay.intact_len as usize <= cut
                    );
                }
            }
            Err(e) => {
                // Hard errors are reserved for an unreadable header.
                prop_assert!(cut < 12, "hard error past the header: {e}");
            }
        }
    }

    /// A single bit flip anywhere in the body is caught by a record
    /// checksum (replay stops, rolls back to the last marker before the
    /// flip) or by header validation — never a panic, never a corrupted
    /// record surfacing as data.
    #[test]
    fn wal_bit_flips_never_panic(n in 3usize..6, byte_frac in 0.0f64..1.0, bit in 0u8..8) {
        let bytes = healthy_wal(n);
        let idx = ((bytes.len() as f64) * byte_frac) as usize % bytes.len();
        let mut evil = bytes.clone();
        evil[idx] ^= 1 << bit;
        match Wal::replay_bytes(&evil) {
            Ok(replay) => {
                let full = Wal::replay_bytes(&bytes).expect("healthy log replays");
                // Every record replayed from the corrupt file must be
                // bit-identical to the healthy prefix: the flip either
                // stopped replay or lived past the last surviving record.
                prop_assert!(replay.records.len() <= full.records.len());
                for (got, want) in replay.records.iter().zip(&full.records) {
                    prop_assert_eq!(got, want);
                }
            }
            Err(_) => prop_assert!(idx < 12, "hard error must mean a mangled header"),
        }
    }

    /// Snapshot bytes: truncation and bit flips are typed errors (or,
    /// vanishingly rarely for a flip, a checksum collision that still
    /// decodes to a validated snapshot) — never a panic.
    #[test]
    fn snapshot_corruption_never_panics(cut_frac in 0.0f64..1.0, bit in 0u8..8, flip in 0u8..2) {
        let bytes = healthy_snapshot();
        if flip == 1 {
            let idx = ((bytes.len() as f64) * cut_frac) as usize % bytes.len();
            let mut evil = bytes.clone();
            evil[idx] ^= 1 << bit;
            if let Ok(s) = Snapshot::from_bytes(&evil) {
                // Only a same-checksum decode can get here; it must
                // still be a fully validated snapshot.
                for (fp, g) in &s.graphs {
                    prop_assert!(g.validate().is_ok());
                    prop_assert_eq!(*fp, StructureFingerprint::of(g));
                }
            }
        } else {
            let cut = ((bytes.len() as f64) * cut_frac) as usize;
            if cut < bytes.len() {
                prop_assert!(Snapshot::from_bytes(&bytes[..cut]).is_err());
            }
        }
    }
}

#[test]
fn duplicated_records_replay_and_are_skipped_idempotently() {
    // Duplicate every delta record byte-for-byte by appending the same
    // record twice; replay must surface both copies (the WAL is honest
    // about its contents) and recovery's fingerprint gating skips the
    // second apply — asserted end-to-end in restart_equivalence.rs; here
    // we pin the format level: duplicates are not a decode error.
    let path = scratch("dup");
    let g = gen::erdos_renyi(48, 180, 99);
    let base_fp = StructureFingerprint::of(&g);
    let delta = free_cell_delta(&g);
    let new_fp = StructureFingerprint::of(&delta.apply(&g).expect("applies"));
    let rec = DeltaRecord {
        epoch: 0,
        trace_index: 3,
        base_fp,
        new_fp,
        delta,
    };
    let mut wal = Wal::create(&path).expect("create");
    wal.append_delta(&rec).expect("append");
    wal.append_delta(&rec).expect("append dup");
    wal.append_marker(&EpochMarker {
        epoch: 0,
        counters: FrontCounters::default(),
        cache: CacheStats::default(),
        shard_residency: vec![shard(&[])],
        quarantine: vec![],
    })
    .expect("marker");
    drop(wal);
    let replay = Wal::replay(&path).expect("replays");
    let _ = std::fs::remove_file(&path);
    let deltas: Vec<_> = replay.durable_deltas().collect();
    assert_eq!(deltas.len(), 2);
    assert_eq!(deltas[0], deltas[1]);
}

#[test]
fn stale_fingerprint_in_record_is_detected_at_recovery() {
    // A record whose logged post-apply fingerprint disagrees with its
    // delta decodes fine (the frame checksum covers what was written)
    // but must be rejected by recovery's per-link verification. The
    // format level can't catch it; pin that the mismatch is visible.
    let path = scratch("stalefp");
    let g = gen::erdos_renyi(48, 180, 123);
    let base_fp = StructureFingerprint::of(&g);
    let delta = free_cell_delta(&g);
    let lying_fp = StructureFingerprint {
        lo: 0xdead,
        hi: 0xbeef,
    };
    let mut wal = Wal::create(&path).expect("create");
    wal.append_delta(&DeltaRecord {
        epoch: 0,
        trace_index: 0,
        base_fp,
        new_fp: lying_fp,
        delta: delta.clone(),
    })
    .expect("append");
    wal.append_marker(&EpochMarker {
        epoch: 0,
        counters: FrontCounters::default(),
        cache: CacheStats::default(),
        shard_residency: vec![shard(&[])],
        quarantine: vec![],
    })
    .expect("marker");
    drop(wal);
    let replay = Wal::replay(&path).expect("replays");
    let _ = std::fs::remove_file(&path);
    let rec = replay.durable_deltas().next().expect("one record");
    match &replay.records[0] {
        WalRecord::Delta(d) => assert_eq!(d, rec),
        other => panic!("expected a delta record, got {other:?}"),
    }
    let truth = StructureFingerprint::of(&rec.delta.apply(&g).expect("applies"));
    assert_ne!(truth, rec.new_fp, "the log is lying and recovery can tell");
}

#[test]
fn version_1_files_fail_typed() {
    // Written by the previous format: markers and snapshots that list
    // resident fingerprints without their eviction state. Restoring from
    // them would silently change every later eviction, so they fail.
    let wal = include_bytes!("fixtures/v1.wal");
    let snap = include_bytes!("fixtures/v1.snap");
    assert!(matches!(
        Wal::replay_bytes(wal),
        Err(RecoveryError::UnsupportedVersion { found: 1 })
    ));
    assert!(matches!(
        Snapshot::from_bytes(snap),
        Err(RecoveryError::UnsupportedVersion { found: 1 })
    ));

    let cfg = DurabilityConfig {
        wal_path: scratch("v1-wal"),
        snapshot_path: scratch("v1-snap"),
        snapshot_every: 1,
    };
    std::fs::write(&cfg.wal_path, wal).expect("write the v1 log");
    let front = Front::new(1 << 20, PlanSpec::hybrid(), 1, FrontConfig::default());
    let recovered = DurableFront::recover(front, cfg.clone(), &[], &DeviceSpec::rtx3090());
    let _ = std::fs::remove_file(&cfg.wal_path);
    assert!(matches!(
        recovered.err(),
        Some(RecoveryError::UnsupportedVersion { found: 1 })
    ));
}
