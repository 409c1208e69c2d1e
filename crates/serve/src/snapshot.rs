//! Atomic snapshots of the serving front's recoverable state.
//!
//! A snapshot captures everything a restart cannot cheaply re-derive from
//! the event trace: the *post-churn base graph structures* (keyed by
//! [`StructureFingerprint`] — the applied-delta high-water mark for each
//! graph lineage), each cache shard's eviction state (its inflation clock
//! and its resident entries' hits, cost and priority in recency order, so
//! the restarted cache makes identical eviction decisions), the
//! quarantine set, and the cumulative counters at the snapshot's epoch
//! barrier.
//! Prepared [`hc_core::Plan`]s are deliberately **not** serialized: plans
//! are a pure deterministic function of (graph, spec, device), so recovery
//! rebuilds them — warm via [`hc_core::Plan::patch`] replay along the
//! WAL's delta chains where possible — and the snapshot stays small and
//! version-robust.
//!
//! Snapshots are written with the crate's `fsio::atomic_write` (temp +
//! fsync + rename): a crash mid-snapshot leaves the previous snapshot
//! intact, never a torn one. Loading re-validates everything —
//! header, trailing checksum, [`Csr::validate`] per graph, fingerprint
//! match per graph — and maps every defect class to a typed
//! [`RecoveryError`], never a panic.

use std::path::Path;

use graph_sparse::{Csr, StructureFingerprint};

use crate::cache::{CacheStats, ShardState};
use crate::codec::{
    check_header, checksum, decode_cache_stats, decode_counters, decode_shards, encode_cache_stats,
    encode_counters, encode_shards, Dec, Enc, HEADER_LEN,
};
use crate::front::FrontCounters;
use crate::wal::RecoveryError;

/// File magic for snapshot files.
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"HCSPMMSS";
/// Current snapshot format version. Version 2 carries the cache's eviction
/// state, as the WAL's version-2 markers do; a version-1 file fails with
/// [`RecoveryError::UnsupportedVersion`].
pub const SNAPSHOT_VERSION: u32 = 2;

/// The serving front's recoverable state at one epoch barrier.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// The last completed epoch this snapshot covers.
    pub epoch: u64,
    /// Cumulative front counters at the barrier.
    pub counters: FrontCounters,
    /// Cumulative cache statistics at the barrier.
    pub cache: CacheStats,
    /// Every distinct structure resident or mutated so far, at its
    /// applied-delta high-water mark. The fingerprint doubles as the
    /// high-water mark: it names exactly which deltas have been applied.
    pub graphs: Vec<(StructureFingerprint, Csr)>,
    /// Each cache shard's eviction state, resident entries least recently
    /// used first.
    pub shard_residency: Vec<ShardState>,
    /// The quarantine registry, sorted.
    pub quarantine: Vec<StructureFingerprint>,
}

fn encode_csr(e: &mut Enc, g: &Csr) {
    e.u64(g.nrows as u64);
    e.u64(g.ncols as u64);
    e.u32(g.row_ptr.len() as u32);
    for &v in &g.row_ptr {
        e.u32(v);
    }
    e.u32(g.col_idx.len() as u32);
    for &v in &g.col_idx {
        e.u32(v);
    }
    e.u32(g.vals.len() as u32);
    for &v in &g.vals {
        e.f32(v);
    }
}

fn decode_csr(d: &mut Dec<'_>) -> Option<Csr> {
    let nrows = d.u64()? as usize;
    let ncols = d.u64()? as usize;
    let n_ptr = d.u32()? as usize;
    if n_ptr > d.remaining() / 4 {
        return None;
    }
    let mut row_ptr = Vec::with_capacity(n_ptr);
    for _ in 0..n_ptr {
        row_ptr.push(d.u32()?);
    }
    let n_idx = d.u32()? as usize;
    if n_idx > d.remaining() / 4 {
        return None;
    }
    let mut col_idx = Vec::with_capacity(n_idx);
    for _ in 0..n_idx {
        col_idx.push(d.u32()?);
    }
    let n_vals = d.u32()? as usize;
    if n_vals > d.remaining() / 4 {
        return None;
    }
    let mut vals = Vec::with_capacity(n_vals);
    for _ in 0..n_vals {
        vals.push(d.f32()?);
    }
    Some(Csr {
        nrows,
        ncols,
        row_ptr,
        col_idx,
        vals,
    })
}

impl Snapshot {
    /// Serialize to the on-disk image: magic, version, payload, trailing
    /// SplitMix64-folded checksum over everything before it.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut e = Enc::with_header(&SNAPSHOT_MAGIC, SNAPSHOT_VERSION);
        e.u64(self.epoch);
        encode_counters(&mut e, &self.counters);
        encode_cache_stats(&mut e, &self.cache);
        e.u32(self.graphs.len() as u32);
        for (fp, g) in &self.graphs {
            e.fp(*fp);
            encode_csr(&mut e, g);
        }
        encode_shards(&mut e, &self.shard_residency);
        e.fps(&self.quarantine);
        let mut out = e.into_bytes();
        let sum = checksum(&[&out]);
        out.extend_from_slice(&sum.to_le_bytes());
        out
    }

    /// Atomically write the snapshot to `path` (temp + fsync + rename):
    /// a crash anywhere inside leaves the previous snapshot readable.
    pub fn save(&self, path: &Path) -> Result<(), RecoveryError> {
        crate::fsio::atomic_write(path, &self.to_bytes())?;
        Ok(())
    }

    /// Load and fully re-validate a snapshot from `path`.
    pub fn load(path: &Path) -> Result<Snapshot, RecoveryError> {
        let bytes = std::fs::read(path)?;
        Snapshot::from_bytes(&bytes)
    }

    /// [`Snapshot::load`] over an in-memory image (exposed for the
    /// corruption suite). Every defect class maps to one
    /// [`RecoveryError`] variant; hostile bytes never panic.
    pub fn from_bytes(bytes: &[u8]) -> Result<Snapshot, RecoveryError> {
        // The smallest image is the header and the 8-byte checksum.
        check_header(bytes, &SNAPSHOT_MAGIC, SNAPSHOT_VERSION, HEADER_LEN + 8)?;
        let (image, sum) = bytes.split_at(bytes.len() - 8);
        if Dec::new(sum).u64() != Some(checksum(&[image])) {
            return Err(RecoveryError::ChecksumMismatch { offset: 0 });
        }

        let malformed = |what: &'static str| RecoveryError::Malformed {
            offset: HEADER_LEN as u64,
            what,
        };
        let mut d = Dec::new(&image[HEADER_LEN..]);
        let epoch = d.u64().ok_or(malformed("epoch"))?;
        let counters = decode_counters(&mut d).ok_or(malformed("counters"))?;
        let cache = decode_cache_stats(&mut d).ok_or(malformed("cache stats"))?;
        let n_graphs = d.u32().ok_or(malformed("graph count"))? as usize;
        if n_graphs > bytes.len() {
            return Err(malformed("graph count"));
        }
        let mut graphs = Vec::with_capacity(n_graphs);
        for _ in 0..n_graphs {
            let fp = d.fp().ok_or(malformed("graph fingerprint"))?;
            let g = decode_csr(&mut d).ok_or(malformed("graph payload"))?;
            // The ingest contract (same as every other ingest path):
            // structural validation first, then the fingerprint must match
            // the one the snapshot claims for it.
            g.validate().map_err(RecoveryError::InvalidGraph)?;
            let got = StructureFingerprint::of(&g);
            if got != fp {
                return Err(RecoveryError::FingerprintMismatch { expected: fp, got });
            }
            graphs.push((fp, g));
        }
        let shard_residency = decode_shards(&mut d).ok_or(malformed("shard residency"))?;
        let quarantine = d.fps().ok_or(malformed("quarantine set"))?;
        if !d.done() {
            return Err(malformed("trailing bytes"));
        }
        Ok(Snapshot {
            epoch,
            counters,
            cache,
            graphs,
            shard_residency,
            quarantine,
        })
    }

    /// Look up a snapshotted graph by fingerprint.
    pub fn graph(&self, fp: StructureFingerprint) -> Option<&Csr> {
        self.graphs.iter().find(|(f, _)| *f == fp).map(|(_, g)| g)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::ResidentEntry;
    use graph_sparse::gen;

    fn sample() -> Snapshot {
        let g0 = gen::erdos_renyi(96, 400, 7);
        let g1 = gen::community(128, 512, 8, 0.9, 9);
        let f0 = StructureFingerprint::of(&g0);
        let f1 = StructureFingerprint::of(&g1);
        Snapshot {
            epoch: 3,
            counters: FrontCounters {
                submitted: 40,
                admitted: 36,
                epochs: 4,
                ..Default::default()
            },
            cache: CacheStats {
                requests: 36,
                hits: 30,
                misses: 6,
                ..Default::default()
            },
            graphs: vec![(f0, g0), (f1, g1)],
            shard_residency: vec![
                ShardState {
                    inflation: 0.0,
                    resident: vec![ResidentEntry {
                        fp: f0,
                        hits: 1,
                        cost_ms: 0.02,
                        priority: 1.5e-6,
                    }],
                },
                ShardState {
                    inflation: 1e-6,
                    resident: vec![ResidentEntry {
                        fp: f1,
                        hits: 5,
                        cost_ms: 0.04,
                        priority: 9e-6,
                    }],
                },
                ShardState::default(),
                ShardState::default(),
            ],
            quarantine: vec![],
        }
    }

    #[test]
    fn roundtrips_through_disk() {
        let snap = sample();
        let mut path = std::env::temp_dir();
        path.push(format!("hc-snap-{}-rt.bin", std::process::id()));
        snap.save(&path).expect("save");
        let back = Snapshot::load(&path).expect("load");
        assert_eq!(snap, back);
        assert!(back.graph(snap.graphs[0].0).is_some());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn save_replaces_atomically() {
        let mut snap = sample();
        let mut path = std::env::temp_dir();
        path.push(format!("hc-snap-{}-atomic.bin", std::process::id()));
        snap.save(&path).expect("save 1");
        snap.epoch = 9;
        snap.save(&path).expect("save 2");
        assert_eq!(Snapshot::load(&path).expect("load").epoch, 9);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn every_single_bit_flip_is_a_typed_error_or_equal() {
        let clean = sample().to_bytes();
        for i in 0..clean.len() {
            for bit in [0x01u8, 0x80] {
                let mut bytes = clean.clone();
                bytes[i] ^= bit;
                match Snapshot::from_bytes(&bytes) {
                    // A flip in an f32 value changes the graph *and* its
                    // fingerprint+checksum, so Ok can only mean the flip
                    // was somehow absorbed — reject that entirely: the
                    // checksum covers every byte.
                    Ok(_) => panic!("bit flip at byte {i} not detected"),
                    Err(
                        RecoveryError::BadMagic
                        | RecoveryError::UnsupportedVersion { .. }
                        | RecoveryError::ChecksumMismatch { .. }
                        | RecoveryError::Truncated { .. },
                    ) => {}
                    Err(e) => panic!("unexpected error class at byte {i}: {e}"),
                }
            }
        }
    }

    #[test]
    fn truncation_is_typed() {
        let clean = sample().to_bytes();
        for keep in [0, 4, 12, 40, clean.len() - 1] {
            let r = Snapshot::from_bytes(&clean[..keep]);
            assert!(r.is_err(), "truncated to {keep} bytes must not load");
        }
    }
}
