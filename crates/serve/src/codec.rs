//! The little-endian codec shared by the WAL and snapshot formats: the
//! file header and its check, the record checksum, the bounds-checked
//! encoder and decoder, and the sections both files carry — cumulative
//! front counters, cache statistics and the per-shard cache eviction
//! state.

use graph_sparse::StructureFingerprint;

use crate::cache::{CacheStats, ResidentEntry, ShardState};
use crate::front::FrontCounters;
use crate::wal::RecoveryError;

/// Length of the header both file formats open with: an 8-byte magic,
/// then the little-endian `u32` format version.
pub(crate) const HEADER_LEN: usize = 12;

/// Check the header of a file of one format (`magic`, `version`) whose
/// smallest well-formed image is `min_len` bytes. A shorter file is
/// [`RecoveryError::BadMagic`] when the bytes it has disagree with
/// `magic`, and [`RecoveryError::Truncated`] at its length otherwise. A
/// full-length file is checked for its magic first, then for its
/// version.
pub(crate) fn check_header(
    bytes: &[u8],
    magic: &[u8; 8],
    version: u32,
    min_len: usize,
) -> Result<(), RecoveryError> {
    let mut d = Dec::new(bytes);
    // A file shorter than the magic is checked against the magic's prefix.
    let seen = d.bytes(magic.len()).unwrap_or(bytes);
    if !magic.starts_with(seen) {
        return Err(RecoveryError::BadMagic);
    }
    if bytes.len() < min_len.max(HEADER_LEN) {
        return Err(RecoveryError::Truncated {
            offset: bytes.len() as u64,
        });
    }
    match d.u32() {
        Some(found) if found != version => Err(RecoveryError::UnsupportedVersion { found }),
        _ => Ok(()),
    }
}

/// SplitMix64 finalizer — the workspace's standard deterministic mixer.
fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// SplitMix64 fold over a byte string: the length seeds the state, then
/// each little-endian 8-byte chunk (zero-padded tail) is mixed in. Not
/// cryptographic — it catches torn writes and random corruption, which is
/// the WAL's threat model.
pub(crate) fn checksum(parts: &[&[u8]]) -> u64 {
    let total: usize = parts.iter().map(|p| p.len()).sum();
    let mut state = splitmix(0x4843_574c ^ total as u64); // "HCWL"
    let mut carry = [0u8; 8];
    let mut fill = 0usize;
    for part in parts {
        for &b in *part {
            carry[fill] = b;
            fill += 1;
            if fill == 8 {
                state = splitmix(state ^ u64::from_le_bytes(carry));
                fill = 0;
            }
        }
    }
    if fill > 0 {
        carry[fill..].fill(0);
        state = splitmix(state ^ u64::from_le_bytes(carry));
    }
    state
}

/// Little-endian byte-string encoder.
#[derive(Default)]
pub(crate) struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    pub(crate) fn new() -> Enc {
        Enc::default()
    }

    /// An encoder whose bytes open with a file header: `magic`, then
    /// `version`.
    pub(crate) fn with_header(magic: &[u8; 8], version: u32) -> Enc {
        let mut e = Enc {
            buf: magic.to_vec(),
        };
        e.u32(version);
        e
    }

    pub(crate) fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn f32(&mut self, v: f32) {
        self.u32(v.to_bits());
    }

    pub(crate) fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    pub(crate) fn fp(&mut self, fp: StructureFingerprint) {
        self.u64(fp.lo);
        self.u64(fp.hi);
    }

    pub(crate) fn fps(&mut self, fps: &[StructureFingerprint]) {
        self.u32(fps.len() as u32);
        for &fp in fps {
            self.fp(fp);
        }
    }

    pub(crate) fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

/// Bounds-checked little-endian decoder: every read can fail (hostile
/// bytes), no read panics.
pub(crate) struct Dec<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    pub(crate) fn new(bytes: &'a [u8]) -> Dec<'a> {
        Dec { bytes, pos: 0 }
    }

    /// The next `n` bytes, as a slice of the input.
    pub(crate) fn bytes(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        let s = self.bytes.get(self.pos..end)?;
        self.pos = end;
        Some(s)
    }

    pub(crate) fn u32(&mut self) -> Option<u32> {
        self.bytes(4).map(|s| {
            let mut b = [0u8; 4];
            b.copy_from_slice(s);
            u32::from_le_bytes(b)
        })
    }

    pub(crate) fn u64(&mut self) -> Option<u64> {
        self.bytes(8).map(|s| {
            let mut b = [0u8; 8];
            b.copy_from_slice(s);
            u64::from_le_bytes(b)
        })
    }

    pub(crate) fn f32(&mut self) -> Option<f32> {
        self.u32().map(f32::from_bits)
    }

    pub(crate) fn f64(&mut self) -> Option<f64> {
        self.u64().map(f64::from_bits)
    }

    pub(crate) fn fp(&mut self) -> Option<StructureFingerprint> {
        let lo = self.u64()?;
        let hi = self.u64()?;
        Some(StructureFingerprint { lo, hi })
    }

    pub(crate) fn fps(&mut self) -> Option<Vec<StructureFingerprint>> {
        let n = self.u32()? as usize;
        // A corrupted count must not pre-allocate unbounded memory.
        if n > self.remaining() / 16 {
            return None;
        }
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(self.fp()?);
        }
        Some(out)
    }

    /// Bytes read so far.
    pub(crate) fn position(&self) -> usize {
        self.pos
    }

    pub(crate) fn remaining(&self) -> usize {
        self.bytes.len().saturating_sub(self.pos)
    }

    pub(crate) fn done(&self) -> bool {
        self.pos == self.bytes.len()
    }
}

pub(crate) fn encode_counters(e: &mut Enc, c: &FrontCounters) {
    for v in [
        c.submitted,
        c.admitted,
        c.rejected_queue,
        c.rejected_quota,
        c.completed,
        c.ok,
        c.degraded,
        c.failed,
        c.cohorts,
        c.cohorted_requests,
        c.epochs,
        c.quarantined_cohorts,
        c.mutations,
        c.patched_plans,
        c.stale_served,
    ] {
        e.u64(v);
    }
}

pub(crate) fn decode_counters(d: &mut Dec<'_>) -> Option<FrontCounters> {
    Some(FrontCounters {
        submitted: d.u64()?,
        admitted: d.u64()?,
        rejected_queue: d.u64()?,
        rejected_quota: d.u64()?,
        completed: d.u64()?,
        ok: d.u64()?,
        degraded: d.u64()?,
        failed: d.u64()?,
        cohorts: d.u64()?,
        cohorted_requests: d.u64()?,
        epochs: d.u64()?,
        quarantined_cohorts: d.u64()?,
        mutations: d.u64()?,
        patched_plans: d.u64()?,
        stale_served: d.u64()?,
    })
}

pub(crate) fn encode_cache_stats(e: &mut Enc, s: &CacheStats) {
    for v in [
        s.requests,
        s.hits,
        s.misses,
        s.evictions,
        s.rejected,
        s.quarantined,
        s.quarantine_misses,
        s.stale_hits,
        s.swaps,
    ] {
        e.u64(v);
    }
}

pub(crate) fn decode_cache_stats(d: &mut Dec<'_>) -> Option<CacheStats> {
    Some(CacheStats {
        requests: d.u64()?,
        hits: d.u64()?,
        misses: d.u64()?,
        evictions: d.u64()?,
        rejected: d.u64()?,
        quarantined: d.u64()?,
        quarantine_misses: d.u64()?,
        stale_hits: d.u64()?,
        swaps: d.u64()?,
    })
}

/// Encoded size of one [`ResidentEntry`]: fingerprint, hits, cost,
/// priority.
const ENTRY_LEN: usize = 16 + 8 + 8 + 8;

/// The per-shard eviction state: a shard count, then per shard its
/// inflation clock, an entry count, and each entry's fingerprint, hits,
/// cost and priority, least recently used first.
pub(crate) fn encode_shards(e: &mut Enc, shards: &[ShardState]) {
    e.u32(shards.len() as u32);
    for shard in shards {
        e.f64(shard.inflation);
        e.u32(shard.resident.len() as u32);
        for r in &shard.resident {
            e.fp(r.fp);
            e.u64(r.hits);
            e.f64(r.cost_ms);
            e.f64(r.priority);
        }
    }
}

/// Decode [`encode_shards`]' section. Counts are bounded by the bytes
/// left before anything is allocated, and a state no live cache can
/// hold — a non-finite or negative clock, cost or priority, or an entry
/// with no reference — fails, so recovery never restores a silently
/// different cache.
pub(crate) fn decode_shards(d: &mut Dec<'_>) -> Option<Vec<ShardState>> {
    let valid = |v: f64| v.is_finite() && v >= 0.0;
    let n = d.u32()? as usize;
    if n > d.remaining() / 12 {
        return None;
    }
    let mut shards = Vec::with_capacity(n);
    for _ in 0..n {
        let inflation = d.f64().filter(|&v| valid(v))?;
        let m = d.u32()? as usize;
        if m > d.remaining() / ENTRY_LEN {
            return None;
        }
        let mut resident = Vec::with_capacity(m);
        for _ in 0..m {
            let entry = ResidentEntry {
                fp: d.fp()?,
                hits: d.u64().filter(|&h| h > 0)?,
                cost_ms: d.f64().filter(|&v| valid(v))?,
                priority: d.f64().filter(|&v| valid(v))?,
            };
            resident.push(entry);
        }
        shards.push(ShardState {
            inflation,
            resident,
        });
    }
    Some(shards)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::Snapshot;
    use crate::wal::{Wal, WAL_MAGIC, WAL_VERSION};

    #[test]
    fn checksum_distinguishes_part_boundaries() {
        // The fold must not treat ["ab","c"] and ["a","bc"] differently,
        // but must distinguish content and length.
        assert_eq!(checksum(&[b"ab", b"c"]), checksum(&[b"a", b"bc"]));
        assert_ne!(checksum(&[b"abc"]), checksum(&[b"abd"]));
        assert_ne!(checksum(&[b"abc"]), checksum(&[b"abc\0"]));
    }

    fn sample_shards() -> Vec<ShardState> {
        vec![
            ShardState {
                inflation: 1.25e-6,
                resident: vec![
                    ResidentEntry {
                        fp: StructureFingerprint { lo: 1, hi: 2 },
                        hits: 3,
                        cost_ms: 0.042,
                        priority: 5.5e-6,
                    },
                    ResidentEntry {
                        fp: StructureFingerprint { lo: 3, hi: 4 },
                        hits: 1,
                        cost_ms: 0.017,
                        priority: 1.9e-6,
                    },
                ],
            },
            ShardState::default(),
        ]
    }

    #[test]
    fn shard_state_roundtrips_bit_exactly() {
        let shards = sample_shards();
        let mut e = Enc::new();
        encode_shards(&mut e, &shards);
        let bytes = e.into_bytes();
        assert_eq!(bytes.len(), 4 + 2 * 12 + 2 * ENTRY_LEN);
        let mut d = Dec::new(&bytes);
        assert_eq!(decode_shards(&mut d), Some(shards));
        assert!(d.done());
        // Every strict prefix fails to decode.
        for cut in 0..bytes.len() {
            assert_eq!(decode_shards(&mut Dec::new(&bytes[..cut])), None);
        }
    }

    #[test]
    fn impossible_shard_state_fails_to_decode() {
        let corrupt = |edit: &dyn Fn(&mut ShardState)| {
            let mut shards = sample_shards();
            edit(&mut shards[0]);
            let mut e = Enc::new();
            encode_shards(&mut e, &shards);
            decode_shards(&mut Dec::new(&e.into_bytes()))
        };
        assert!(corrupt(&|s| s.inflation = f64::NAN).is_none());
        assert!(corrupt(&|s| s.inflation = -1.0).is_none());
        assert!(corrupt(&|s| s.resident[0].hits = 0).is_none());
        assert!(corrupt(&|s| s.resident[1].cost_ms = f64::INFINITY).is_none());
        assert!(corrupt(&|s| s.resident[1].priority = f64::NAN).is_none());
        // A count larger than the bytes left allocates nothing.
        let mut e = Enc::new();
        e.u32(u32::MAX);
        assert!(decode_shards(&mut Dec::new(&e.into_bytes())).is_none());
    }

    /// What a reader made of a file's header.
    #[derive(Debug, PartialEq)]
    enum Verdict {
        Passed,
        BadMagic,
        Truncated(u64),
        Version(u32),
    }

    fn verdict<T>(r: Result<T, RecoveryError>) -> Verdict {
        match r {
            Ok(_) => Verdict::Passed,
            Err(RecoveryError::BadMagic) => Verdict::BadMagic,
            Err(RecoveryError::Truncated { offset }) => Verdict::Truncated(offset),
            Err(RecoveryError::UnsupportedVersion { found }) => Verdict::Version(found),
            Err(e) => panic!("not a header verdict: {e}"),
        }
    }

    /// Pin the header rule for one format, whose well-formed `image` is
    /// at least the format's `min_len` bytes.
    fn header_table(name: &str, image: &[u8], min_len: usize, read: fn(&[u8]) -> Verdict) {
        assert_eq!(read(image), Verdict::Passed, "{name}");
        for cut in 0..min_len {
            let short = &image[..cut];
            assert_eq!(read(short), Verdict::Truncated(cut as u64), "{name} {cut}");
            // A wrong byte inside the magic prefix is BadMagic; past it, a
            // short file is truncated whatever its version says.
            for i in 0..cut {
                let mut evil = short.to_vec();
                evil[i] ^= 0x20;
                let want = if i < 8 {
                    Verdict::BadMagic
                } else {
                    Verdict::Truncated(cut as u64)
                };
                assert_eq!(read(&evil), want, "{name} {cut} byte {i}");
            }
        }
        for i in 0..8 {
            let mut evil = image.to_vec();
            evil[i] ^= 0x01;
            assert_eq!(read(&evil), Verdict::BadMagic, "{name} byte {i}");
            // The magic is checked before the version.
            evil[8..12].copy_from_slice(&3u32.to_le_bytes());
            assert_eq!(read(&evil), Verdict::BadMagic, "{name} byte {i}");
        }
        for found in [0u32, 1, 3] {
            let mut evil = image.to_vec();
            evil[8..12].copy_from_slice(&found.to_le_bytes());
            assert_eq!(read(&evil), Verdict::Version(found), "{name} v{found}");
        }
    }

    /// The header rule both file formats share: a file shorter than the
    /// format's minimum is `BadMagic` when its magic prefix is wrong and
    /// `Truncated` at its length otherwise; a full-length file is checked
    /// for its magic, then for its version.
    #[test]
    fn header_rule_table() {
        let wal = [&WAL_MAGIC[..], &WAL_VERSION.to_le_bytes()].concat();
        header_table("wal", &wal, 12, |b| verdict(Wal::replay_bytes(b)));
        let snapshot = Snapshot {
            epoch: 0,
            counters: FrontCounters::default(),
            cache: CacheStats::default(),
            graphs: vec![],
            shard_residency: vec![],
            quarantine: vec![],
        };
        header_table("snapshot", &snapshot.to_bytes(), 20, |b| {
            verdict(Snapshot::from_bytes(b))
        });
    }
}
