//! Append-only, checksummed write-ahead log of applied structure deltas.
//!
//! The serving front keeps every byte of its mutable state in memory: the
//! post-churn graphs, the [`SharedPlanCache`](crate::SharedPlanCache)
//! contents, the quarantine registry, the traffic counters. A crash
//! mid-trace would lose the graphs' post-churn structure and force a cold
//! re-prepare of every resident plan (~13× one SpMM each). The WAL is the
//! first half of the durability answer (the other half is
//! [`snapshot`](crate::snapshot)): before a patched plan is swapped in,
//! the delta that produced it is appended here, together with the
//! fingerprints of the structure before and after the apply. Recovery is
//! then pure replay of pinned-deterministic code — deltas are re-applied
//! and verified against the logged post-apply fingerprint, plans are
//! rebuilt (never serialized).
//!
//! ## On-disk format
//!
//! A 12-byte header (8-byte magic, little-endian `u32` version) followed
//! by length-prefixed records:
//!
//! ```text
//! [u32 len] [u8 kind] [payload: len-1 bytes] [u64 checksum]
//! ```
//!
//! `len` covers the kind byte plus the payload; the checksum is a
//! SplitMix64 fold over the length prefix, the kind and the payload. All
//! integers are little-endian. Two record kinds exist: a **delta record**
//! (one applied [`DeltaCsr`] with its base/post-apply fingerprints and
//! trace position) and an **epoch marker** (the fsync point: cumulative
//! counters, cache statistics, each cache shard's eviction state — its
//! inflation clock and its resident entries' hits, cost and priority in
//! recency order — and the quarantine set at an epoch barrier).
//! [`Wal::append_marker`] calls `sync_all` after the write, so everything
//! up to and including the last marker is durable; delta records after
//! the last marker are not.
//!
//! ## Torn tails and idempotent replay
//!
//! [`Wal::replay`] scans records sequentially and stops at the first
//! defect (truncated record, checksum mismatch, unknown kind, malformed
//! payload). A defective tail is *not* an error: recovery rolls back to
//! the last marker — exactly the durability contract — and the dropped
//! mutations are re-applied from the event trace. Re-running the crashed
//! epoch re-appends equivalent delta records, so the log may legitimately
//! contain duplicates; replay is idempotent because applying a delta is
//! gated on the logged base fingerprint matching the current structure
//! (already at the post-apply fingerprint ⇒ skip, never double-apply).
//! Only an unusable header ([`RecoveryError::BadMagic`],
//! [`RecoveryError::UnsupportedVersion`]) is a hard replay error.

use std::fmt;
use std::io::{Seek, Write};
use std::path::{Path, PathBuf};

use graph_sparse::{CsrError, DeltaCsr, DeltaError, StructureFingerprint};

use crate::cache::{CacheStats, ShardState};
use crate::codec::{
    checksum, decode_cache_stats, decode_counters, decode_shards, encode_cache_stats,
    encode_counters, encode_shards, Dec, Enc,
};
use crate::front::FrontCounters;

/// File magic for WAL files.
pub const WAL_MAGIC: [u8; 8] = *b"HCSPMMWL";
/// Current WAL format version. Version 2 markers carry the cache's
/// eviction state (inflation clocks and per-entry hits, cost and
/// priority); a version-1 file fails with
/// [`RecoveryError::UnsupportedVersion`].
pub const WAL_VERSION: u32 = 2;
/// Size of the file header (magic + version).
const HEADER_LEN: u64 = 12;
/// Ceiling on a single record's declared length: a bit-flip in the length
/// prefix must not turn into a giant allocation.
const MAX_RECORD_LEN: u32 = 1 << 28;

const KIND_DELTA: u8 = 1;
const KIND_MARKER: u8 = 2;

/// Typed defect classes for snapshot/WAL ingest, mirroring the
/// [`DeltaError`] pattern: hostile or bit-flipped bytes map to exactly one
/// variant and never a panic.
#[derive(Debug)]
pub enum RecoveryError {
    /// Underlying filesystem failure.
    Io(std::io::Error),
    /// The file does not start with the expected magic bytes.
    BadMagic,
    /// The file's format version is not one this build understands.
    UnsupportedVersion {
        /// Version found in the header.
        found: u32,
    },
    /// The file ends mid-record (or mid-header).
    Truncated {
        /// Byte offset where the truncation was detected.
        offset: u64,
    },
    /// A record's stored checksum does not match its contents.
    ChecksumMismatch {
        /// Byte offset of the failing record's length prefix.
        offset: u64,
    },
    /// A record declares a kind this build does not know.
    UnknownRecordKind {
        /// The unknown kind byte.
        kind: u8,
        /// Byte offset of the record's length prefix.
        offset: u64,
    },
    /// A record's payload does not decode as its kind's layout.
    Malformed {
        /// Byte offset of the record's length prefix.
        offset: u64,
        /// Which field failed to decode.
        what: &'static str,
    },
    /// A logged delta fails [`DeltaCsr`] validation on ingest.
    InvalidDelta(DeltaError),
    /// A snapshotted graph fails [`graph_sparse::Csr::validate`] on
    /// ingest.
    InvalidGraph(CsrError),
    /// Replaying a delta produced a structure whose fingerprint does not
    /// match the logged post-apply fingerprint (payload corruption that
    /// slipped past the checksum, or a stale record).
    FingerprintMismatch {
        /// The fingerprint the log promised.
        expected: StructureFingerprint,
        /// The fingerprint replay produced.
        got: StructureFingerprint,
    },
    /// Recovery needs a base structure the snapshot/WAL does not provide.
    MissingBase(StructureFingerprint),
    /// The snapshot was taken with a different cache shard count than the
    /// recovering front is configured for.
    ShardCountMismatch {
        /// Shards recorded in the snapshot.
        expected: u32,
        /// Shards the recovering front is configured with.
        found: u32,
    },
}

impl fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecoveryError::Io(e) => write!(f, "recovery io error: {e}"),
            RecoveryError::BadMagic => f.write_str("bad file magic (not a WAL/snapshot)"),
            RecoveryError::UnsupportedVersion { found } => {
                write!(f, "unsupported format version {found}")
            }
            RecoveryError::Truncated { offset } => {
                write!(f, "file truncated mid-record at byte {offset}")
            }
            RecoveryError::ChecksumMismatch { offset } => {
                write!(f, "record checksum mismatch at byte {offset}")
            }
            RecoveryError::UnknownRecordKind { kind, offset } => {
                write!(f, "unknown record kind {kind} at byte {offset}")
            }
            RecoveryError::Malformed { offset, what } => {
                write!(f, "malformed record at byte {offset}: bad {what}")
            }
            RecoveryError::InvalidDelta(e) => write!(f, "logged delta fails validation: {e}"),
            RecoveryError::InvalidGraph(e) => write!(f, "snapshotted graph fails validation: {e}"),
            RecoveryError::FingerprintMismatch { expected, got } => write!(
                f,
                "post-apply fingerprint mismatch: expected {}, got {}",
                expected.to_hex(),
                got.to_hex()
            ),
            RecoveryError::MissingBase(fp) => {
                write!(f, "no base structure for fingerprint {}", fp.to_hex())
            }
            RecoveryError::ShardCountMismatch { expected, found } => write!(
                f,
                "snapshot has {expected} cache shards, front configured with {found}"
            ),
        }
    }
}

impl std::error::Error for RecoveryError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RecoveryError::Io(e) => Some(e),
            RecoveryError::InvalidDelta(e) => Some(e),
            RecoveryError::InvalidGraph(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for RecoveryError {
    fn from(e: std::io::Error) -> RecoveryError {
        RecoveryError::Io(e)
    }
}

/// One applied mutation, logged before its patched plan is swapped in.
#[derive(Debug, Clone, PartialEq)]
pub struct DeltaRecord {
    /// Scheduling epoch the mutation fell into.
    pub epoch: u64,
    /// Global position in the event trace.
    pub trace_index: u64,
    /// Fingerprint of the structure the delta applies to.
    pub base_fp: StructureFingerprint,
    /// Fingerprint the structure must have after the apply — the
    /// idempotence and corruption check for replay.
    pub new_fp: StructureFingerprint,
    /// The edge insert/delete batch itself.
    pub delta: DeltaCsr,
}

/// The fsync-point record written at each epoch barrier: everything a
/// restart needs to resume *after* this epoch as if it never stopped.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochMarker {
    /// The epoch this marker commits (all epochs `<= epoch` are durable).
    pub epoch: u64,
    /// Cumulative front counters at the barrier.
    pub counters: FrontCounters,
    /// Cumulative cache statistics at the barrier.
    pub cache: CacheStats,
    /// Each cache shard's eviction state: its inflation clock and its
    /// resident entries, least recently used first — restoring it
    /// reproduces every later eviction decision.
    pub shard_residency: Vec<ShardState>,
    /// The quarantine registry at the barrier, sorted.
    pub quarantine: Vec<StructureFingerprint>,
}

/// A decoded WAL record.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// An applied mutation (not yet necessarily durable).
    Delta(DeltaRecord),
    /// An epoch barrier fsync point.
    Marker(EpochMarker),
}

pub(crate) fn encode_delta(e: &mut Enc, delta: &DeltaCsr) {
    e.u64(delta.nrows() as u64);
    e.u64(delta.ncols() as u64);
    e.u32(delta.inserts().len() as u32);
    e.u32(delta.deletes().len() as u32);
    for &(r, c, v) in delta.inserts() {
        e.u32(r);
        e.u32(c);
        e.f32(v);
    }
    for &(r, c) in delta.deletes() {
        e.u32(r);
        e.u32(c);
    }
}

/// Decode and *re-validate* a delta: the bytes may be hostile, so the
/// batch goes back through [`DeltaCsr::new`]'s full validation.
pub(crate) fn decode_delta(d: &mut Dec<'_>) -> Result<DeltaCsr, Option<DeltaError>> {
    let nrows = d.u64().ok_or(None)? as usize;
    let ncols = d.u64().ok_or(None)? as usize;
    let n_ins = d.u32().ok_or(None)? as usize;
    let n_del = d.u32().ok_or(None)? as usize;
    // Each insert is 12 bytes, each delete 8: reject counts the payload
    // cannot hold before allocating.
    if n_ins > d.remaining() / 12 || n_del > d.remaining() / 8 {
        return Err(None);
    }
    let mut inserts = Vec::with_capacity(n_ins);
    for _ in 0..n_ins {
        let r = d.u32().ok_or(None)?;
        let c = d.u32().ok_or(None)?;
        let v = d.f32().ok_or(None)?;
        inserts.push((r, c, v));
    }
    let mut deletes = Vec::with_capacity(n_del);
    for _ in 0..n_del {
        let r = d.u32().ok_or(None)?;
        let c = d.u32().ok_or(None)?;
        deletes.push((r, c));
    }
    DeltaCsr::new(nrows, ncols, inserts, deletes).map_err(Some)
}

fn encode_record_payload(rec: &WalRecord) -> (u8, Vec<u8>) {
    let mut e = Enc::new();
    match rec {
        WalRecord::Delta(r) => {
            e.u64(r.epoch);
            e.u64(r.trace_index);
            e.fp(r.base_fp);
            e.fp(r.new_fp);
            encode_delta(&mut e, &r.delta);
            (KIND_DELTA, e.into_bytes())
        }
        WalRecord::Marker(m) => {
            e.u64(m.epoch);
            encode_counters(&mut e, &m.counters);
            encode_cache_stats(&mut e, &m.cache);
            encode_shards(&mut e, &m.shard_residency);
            e.fps(&m.quarantine);
            (KIND_MARKER, e.into_bytes())
        }
    }
}

/// Serialize one record to its on-disk framing (length prefix, kind,
/// payload, checksum).
fn frame_record(rec: &WalRecord) -> Vec<u8> {
    let (kind, payload) = encode_record_payload(rec);
    let len = (payload.len() + 1) as u32;
    let len_bytes = len.to_le_bytes();
    let sum = checksum(&[&len_bytes, &[kind], &payload]);
    let mut out = Vec::with_capacity(4 + 1 + payload.len() + 8);
    out.extend_from_slice(&len_bytes);
    out.push(kind);
    out.extend_from_slice(&payload);
    out.extend_from_slice(&sum.to_le_bytes());
    out
}

fn decode_record_payload(
    kind: u8,
    payload: &[u8],
    offset: u64,
) -> Result<WalRecord, RecoveryError> {
    let malformed = |what: &'static str| RecoveryError::Malformed { offset, what };
    let mut d = Dec::new(payload);
    match kind {
        KIND_DELTA => {
            let epoch = d.u64().ok_or(malformed("epoch"))?;
            let trace_index = d.u64().ok_or(malformed("trace index"))?;
            let base_fp = d.fp().ok_or(malformed("base fingerprint"))?;
            let new_fp = d.fp().ok_or(malformed("post-apply fingerprint"))?;
            let delta = decode_delta(&mut d).map_err(|e| match e {
                Some(de) => RecoveryError::InvalidDelta(de),
                None => malformed("delta payload"),
            })?;
            if !d.done() {
                return Err(malformed("trailing bytes"));
            }
            Ok(WalRecord::Delta(DeltaRecord {
                epoch,
                trace_index,
                base_fp,
                new_fp,
                delta,
            }))
        }
        KIND_MARKER => {
            let epoch = d.u64().ok_or(malformed("epoch"))?;
            let counters = decode_counters(&mut d).ok_or(malformed("counters"))?;
            let cache = decode_cache_stats(&mut d).ok_or(malformed("cache stats"))?;
            let shard_residency = decode_shards(&mut d).ok_or(malformed("shard residency"))?;
            let quarantine = d.fps().ok_or(malformed("quarantine set"))?;
            if !d.done() {
                return Err(malformed("trailing bytes"));
            }
            Ok(WalRecord::Marker(EpochMarker {
                epoch,
                counters,
                cache,
                shard_residency,
                quarantine,
            }))
        }
        kind => Err(RecoveryError::UnknownRecordKind { kind, offset }),
    }
}

/// The result of scanning a WAL file: every intact record in order, plus
/// where (and why) the scan stopped.
#[derive(Debug)]
pub struct WalReplay {
    /// All intact records, in append order — including delta records after
    /// the last marker (applied but never committed; recovery ignores them
    /// for state and the re-run re-appends equivalents).
    pub records: Vec<WalRecord>,
    /// Index into `records` of the last epoch marker, if any.
    pub last_marker: Option<usize>,
    /// File offset just past the last intact record (where an append
    /// should resume after truncating the defective tail).
    pub intact_len: u64,
    /// Bytes of defective tail dropped by the scan.
    pub torn_bytes: u64,
    /// Why the scan stopped early, if it did (`None` = clean end of
    /// file). A torn tail is data loss already covered by the rollback
    /// contract, not a hard error.
    pub tail_defect: Option<RecoveryError>,
    /// Intact records past the last marker — rolled back by recovery and
    /// re-applied from the event trace.
    pub rolled_back_records: u64,
}

impl WalReplay {
    /// The last committed epoch marker, if any.
    pub fn last_marker(&self) -> Option<&EpochMarker> {
        self.last_marker.and_then(|i| match self.records.get(i) {
            Some(WalRecord::Marker(m)) => Some(m),
            _ => None,
        })
    }

    /// Delta records up to and including the last marker — the durable
    /// mutation history recovery replays.
    pub fn durable_deltas(&self) -> impl Iterator<Item = &DeltaRecord> {
        let end = self.last_marker.map_or(0, |i| i + 1);
        self.records[..end].iter().filter_map(|r| match r {
            WalRecord::Delta(d) => Some(d),
            WalRecord::Marker(_) => None,
        })
    }
}

/// An open write-ahead log.
pub struct Wal {
    file: std::fs::File,
    path: PathBuf,
    /// Records appended since open (for reports).
    appended: u64,
}

impl Wal {
    /// Create a fresh WAL at `path` (truncating any existing file) and
    /// write the header.
    pub fn create(path: &Path) -> Result<Wal, RecoveryError> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let mut file = std::fs::File::create(path)?;
        file.write_all(&WAL_MAGIC)?;
        file.write_all(&WAL_VERSION.to_le_bytes())?;
        file.sync_all()?;
        Ok(Wal {
            file,
            path: path.to_path_buf(),
            appended: 0,
        })
    }

    /// Scan the WAL at `path` without opening it for writing. See
    /// [`WalReplay`] for the rollback semantics.
    pub fn replay(path: &Path) -> Result<WalReplay, RecoveryError> {
        let bytes = std::fs::read(path)?;
        Self::replay_bytes(&bytes)
    }

    /// [`Wal::replay`] over an in-memory image (exposed for the
    /// corruption suite).
    pub fn replay_bytes(bytes: &[u8]) -> Result<WalReplay, RecoveryError> {
        if bytes.len() < HEADER_LEN as usize {
            if bytes.get(..bytes.len().min(8)) != Some(&WAL_MAGIC[..bytes.len().min(8)]) {
                return Err(RecoveryError::BadMagic);
            }
            return Err(RecoveryError::Truncated {
                offset: bytes.len() as u64,
            });
        }
        if bytes[..8] != WAL_MAGIC {
            return Err(RecoveryError::BadMagic);
        }
        let mut vb = [0u8; 4];
        vb.copy_from_slice(&bytes[8..12]);
        let version = u32::from_le_bytes(vb);
        if version != WAL_VERSION {
            return Err(RecoveryError::UnsupportedVersion { found: version });
        }

        let mut records = Vec::new();
        let mut last_marker = None;
        let mut pos = HEADER_LEN as usize;
        let mut tail_defect = None;
        while pos < bytes.len() {
            let offset = pos as u64;
            match Self::scan_one(bytes, pos) {
                Ok((rec, next)) => {
                    if matches!(rec, WalRecord::Marker(_)) {
                        last_marker = Some(records.len());
                    }
                    records.push(rec);
                    pos = next;
                }
                Err(defect) => {
                    tail_defect = Some(match defect {
                        ScanDefect::Truncated => RecoveryError::Truncated { offset },
                        ScanDefect::Checksum => RecoveryError::ChecksumMismatch { offset },
                        ScanDefect::Decode(e) => e,
                    });
                    break;
                }
            }
        }
        let rolled_back_records = (records.len() - last_marker.map_or(0, |i| i + 1)) as u64;
        Ok(WalReplay {
            records,
            last_marker,
            intact_len: pos as u64,
            torn_bytes: (bytes.len() - pos) as u64,
            tail_defect,
            rolled_back_records,
        })
    }

    fn scan_one(bytes: &[u8], pos: usize) -> Result<(WalRecord, usize), ScanDefect> {
        let len_bytes = bytes.get(pos..pos + 4).ok_or(ScanDefect::Truncated)?;
        let mut lb = [0u8; 4];
        lb.copy_from_slice(len_bytes);
        let len = u32::from_le_bytes(lb);
        if len == 0 || len > MAX_RECORD_LEN {
            return Err(ScanDefect::Checksum);
        }
        let body_end = pos + 4 + len as usize;
        let body = bytes.get(pos + 4..body_end).ok_or(ScanDefect::Truncated)?;
        let sum_bytes = bytes
            .get(body_end..body_end + 8)
            .ok_or(ScanDefect::Truncated)?;
        let mut sb = [0u8; 8];
        sb.copy_from_slice(sum_bytes);
        if checksum(&[len_bytes, body]) != u64::from_le_bytes(sb) {
            return Err(ScanDefect::Checksum);
        }
        let kind = body[0];
        let rec =
            decode_record_payload(kind, &body[1..], pos as u64).map_err(ScanDefect::Decode)?;
        Ok((rec, body_end + 8))
    }

    /// Re-open an existing WAL for appending: replay it, physically
    /// truncate the defective tail (if any), and position the write
    /// cursor after the last intact record. Intact records past the last
    /// marker are *kept* — the re-run appends equivalent records and
    /// replay skips the duplicates idempotently.
    pub fn open_append(path: &Path) -> Result<(Wal, WalReplay), RecoveryError> {
        let replay = Self::replay(path)?;
        let file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .open(path)?;
        file.set_len(replay.intact_len)?;
        let mut file = file;
        file.seek(std::io::SeekFrom::End(0))?;
        Ok((
            Wal {
                file,
                path: path.to_path_buf(),
                appended: 0,
            },
            replay,
        ))
    }

    /// Append a delta record. Buffered by the OS — *not* durable until the
    /// next [`Wal::append_marker`] fsyncs the file.
    pub fn append_delta(&mut self, rec: &DeltaRecord) -> Result<(), RecoveryError> {
        let framed = frame_record(&WalRecord::Delta(rec.clone()));
        self.file.write_all(&framed)?;
        self.appended += 1;
        Ok(())
    }

    /// Simulate a crash tearing a delta append: write only the first
    /// `keep` bytes of the framed record. The result is a physically torn
    /// tail that [`Wal::replay`] must roll back and [`Wal::open_append`]
    /// must truncate.
    pub fn append_delta_torn(
        &mut self,
        rec: &DeltaRecord,
        keep: usize,
    ) -> Result<(), RecoveryError> {
        let framed = frame_record(&WalRecord::Delta(rec.clone()));
        let keep = keep.min(framed.len().saturating_sub(1)).max(1);
        self.file.write_all(&framed[..keep])?;
        self.file.sync_all()?;
        Ok(())
    }

    /// Append an epoch marker and fsync: everything up to and including
    /// this marker is now durable.
    pub fn append_marker(&mut self, marker: &EpochMarker) -> Result<(), RecoveryError> {
        let framed = frame_record(&WalRecord::Marker(marker.clone()));
        self.file.write_all(&framed)?;
        self.file.sync_all()?;
        self.appended += 1;
        Ok(())
    }

    /// Records appended through this handle since it was opened.
    pub fn appended(&self) -> u64 {
        self.appended
    }

    /// Current size of the WAL file in bytes.
    pub fn len_bytes(&self) -> u64 {
        self.file.metadata().map(|m| m.len()).unwrap_or(0)
    }

    /// The path this WAL writes to.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

enum ScanDefect {
    Truncated,
    Checksum,
    Decode(RecoveryError),
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::ResidentEntry;
    use graph_sparse::gen;

    fn scratch(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("hc-wal-{}-{}.wal", std::process::id(), name));
        p
    }

    fn sample_delta(seed: u64) -> DeltaRecord {
        let g = gen::erdos_renyi(64, 256, seed);
        let base_fp = StructureFingerprint::of(&g);
        let row = (seed % 64) as u32;
        let delta = DeltaCsr::new(64, 64, vec![(row, 63, 1.5)], vec![]).expect("valid edit");
        let new_fp = StructureFingerprint::of(&delta.apply(&g).expect("applies"));
        DeltaRecord {
            epoch: seed,
            trace_index: seed * 3,
            base_fp,
            new_fp,
            delta,
        }
    }

    fn sample_marker(epoch: u64) -> EpochMarker {
        EpochMarker {
            epoch,
            counters: FrontCounters {
                submitted: 10 + epoch,
                admitted: 9,
                epochs: epoch + 1,
                ..Default::default()
            },
            cache: CacheStats {
                requests: 9,
                hits: 4,
                misses: 5,
                ..Default::default()
            },
            shard_residency: vec![
                ShardState {
                    inflation: 0.0,
                    resident: vec![ResidentEntry {
                        fp: StructureFingerprint { lo: 1, hi: 2 },
                        hits: 2,
                        cost_ms: 0.03,
                        priority: 2e-6,
                    }],
                },
                ShardState {
                    inflation: 1e-6,
                    resident: vec![
                        ResidentEntry {
                            fp: StructureFingerprint { lo: 3, hi: 4 },
                            hits: 1,
                            cost_ms: 0.05,
                            priority: 2.5e-6,
                        },
                        ResidentEntry {
                            fp: StructureFingerprint { lo: 5, hi: 6 },
                            hits: 4,
                            cost_ms: 0.02,
                            priority: 3.5e-6,
                        },
                    ],
                },
            ],
            quarantine: vec![StructureFingerprint { lo: 7, hi: 8 }],
        }
    }

    #[test]
    fn append_replay_roundtrip() {
        let path = scratch("roundtrip");
        let mut wal = Wal::create(&path).expect("create");
        let d0 = sample_delta(1);
        let d1 = sample_delta(2);
        let m = sample_marker(0);
        wal.append_delta(&d0).expect("append");
        wal.append_delta(&d1).expect("append");
        wal.append_marker(&m).expect("marker");
        drop(wal);

        let replay = Wal::replay(&path).expect("replay");
        assert_eq!(replay.records.len(), 3);
        assert_eq!(replay.records[0], WalRecord::Delta(d0.clone()));
        assert_eq!(replay.records[1], WalRecord::Delta(d1.clone()));
        assert_eq!(replay.records[2], WalRecord::Marker(m.clone()));
        assert_eq!(replay.last_marker, Some(2));
        assert_eq!(replay.last_marker().expect("marker").epoch, 0);
        assert!(replay.tail_defect.is_none());
        assert_eq!(replay.torn_bytes, 0);
        assert_eq!(replay.rolled_back_records, 0);
        assert_eq!(replay.durable_deltas().count(), 2);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_tail_rolls_back_to_marker_and_truncates() {
        let path = scratch("torn");
        let mut wal = Wal::create(&path).expect("create");
        wal.append_delta(&sample_delta(1)).expect("append");
        wal.append_marker(&sample_marker(0)).expect("marker");
        // A post-marker delta whose append is torn mid-record.
        wal.append_delta_torn(&sample_delta(2), 9)
            .expect("torn append");
        drop(wal);

        let replay = Wal::replay(&path).expect("replay");
        assert_eq!(replay.records.len(), 2, "torn record dropped");
        assert_eq!(replay.last_marker, Some(1));
        assert!(replay.torn_bytes > 0);
        assert!(matches!(
            replay.tail_defect,
            Some(RecoveryError::Truncated { .. }) | Some(RecoveryError::ChecksumMismatch { .. })
        ));

        // Re-opening truncates the torn bytes and appends cleanly after.
        let (mut wal, replay) = Wal::open_append(&path).expect("open append");
        assert_eq!(replay.records.len(), 2);
        let d = sample_delta(3);
        wal.append_delta(&d).expect("append after truncate");
        wal.append_marker(&sample_marker(1)).expect("marker");
        drop(wal);
        let replay = Wal::replay(&path).expect("replay");
        assert_eq!(replay.records.len(), 4);
        assert!(replay.tail_defect.is_none());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn unmarked_intact_records_roll_back_but_survive_reopen() {
        let path = scratch("unmarked");
        let mut wal = Wal::create(&path).expect("create");
        wal.append_marker(&sample_marker(0)).expect("marker");
        wal.append_delta(&sample_delta(5)).expect("append");
        drop(wal);
        let (_, replay) = Wal::open_append(&path).expect("open append");
        assert_eq!(replay.records.len(), 2);
        assert_eq!(replay.rolled_back_records, 1);
        assert_eq!(replay.durable_deltas().count(), 0);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn bit_flip_fails_checksum_not_panic() {
        let path = scratch("flip");
        let mut wal = Wal::create(&path).expect("create");
        wal.append_delta(&sample_delta(1)).expect("append");
        wal.append_marker(&sample_marker(0)).expect("marker");
        drop(wal);
        let clean = std::fs::read(&path).expect("read");
        // Flip one bit in every byte position; the scan must never panic
        // and must never return a record set longer than the clean one.
        for i in 0..clean.len() {
            let mut bytes = clean.clone();
            bytes[i] ^= 0x10;
            match Wal::replay_bytes(&bytes) {
                Ok(r) => assert!(r.records.len() <= 2),
                Err(
                    RecoveryError::BadMagic
                    | RecoveryError::UnsupportedVersion { .. }
                    | RecoveryError::Truncated { .. },
                ) => {}
                Err(e) => panic!("unexpected hard error for bit flip at {i}: {e}"),
            }
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn bad_magic_and_version_are_hard_errors() {
        assert!(matches!(
            Wal::replay_bytes(b"NOTAWAL!"),
            Err(RecoveryError::BadMagic)
        ));
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&WAL_MAGIC);
        bytes.extend_from_slice(&99u32.to_le_bytes());
        assert!(matches!(
            Wal::replay_bytes(&bytes),
            Err(RecoveryError::UnsupportedVersion { found: 99 })
        ));
        // Empty / short files are truncation, except when the magic
        // already disagrees.
        assert!(matches!(
            Wal::replay_bytes(&WAL_MAGIC),
            Err(RecoveryError::Truncated { .. })
        ));
    }
}
