//! Compressed tile metadata for condensed row windows.
//!
//! The paper's tensor path traverses a window as `ceil(nnz_cols / 8)`
//! 16×8 WMMA tiles. The original reproduction stored that structure as two
//! dense index vectors per window (`unique_cols` + a per-entry `cond_idx`),
//! i.e. ~`4·(nnz + nnz_cols)` bytes — the dominant share of
//! `Plan::approx_bytes` and of the simulated metadata traffic the A-operand
//! conversion loads. Following Acc-SpMM's bitmap tiles (arXiv:2501.09251),
//! [`TileMeta`] replaces both vectors with
//!
//! * **occupancy bitmaps** — one `u128` per (tile, 16-row group): bit
//!   `(row % 16) · 8 + cond % 8` is set iff the window has a non-zero at
//!   `(row, cond)`; and
//! * a **delta-varint column stream** — the sorted distinct columns as
//!   LEB128 varints: the first column verbatim, then `gap − 1` per
//!   successor (gaps are ≥ 1 because the columns are strictly increasing).
//!
//! The per-entry condensed indices are *not* stored at all: CSR rows carry
//! strictly increasing columns (construction dedups), so the set bits of a
//! row's bitmaps, walked in ascending condensed order, reproduce the
//! entry-order `cond_idx` sequence exactly. [`TileMeta::row_cond_indices`]
//! is that walk, and every former `cond_idx` consumer iterates it without
//! materializing a dense staging form.
//!
//! Hostile encodings (truncated varints, trailing bytes, stray bits, lying
//! counts) are rejected by [`TileMeta::from_parts`] with a typed
//! [`TileCodecError`] — never a panic.

use std::fmt;

/// Columns per WMMA tile (the k-dimension of the 16×8 tile).
pub const TILE_COLS: usize = 8;

/// Rows per bitmap row group (the m-dimension of the 16×8 tile).
pub const GROUP_ROWS: usize = 16;

/// Compressed metadata of one condensed row window: occupancy bitmaps plus
/// a delta-compressed unique-column stream. This is the canonical stored
/// form — kernels and cost models consume it directly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TileMeta {
    /// Rows the window covers.
    rows: u32,
    /// Non-zeros in the window (== total set bits).
    nnz: u32,
    /// Distinct non-zero columns (== values in `col_stream`).
    nnz_cols: u32,
    /// Delta-varint stream of the sorted distinct columns.
    col_stream: Vec<u8>,
    /// `tiles · row_groups` occupancy bitmaps; tile-major, row groups
    /// consecutive within a tile.
    bitmaps: Vec<u128>,
}

/// Typed decode failure for hostile [`TileMeta`] encodings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TileCodecError {
    /// The column stream ended inside a varint.
    TruncatedColStream {
        /// Byte offset of the truncated varint.
        at: usize,
    },
    /// A varint ran past the 5 bytes a `u32` can need.
    OverlongVarint {
        /// Byte offset of the offending varint.
        at: usize,
    },
    /// Bytes remained after the last expected column.
    TrailingColBytes {
        /// Number of unconsumed bytes.
        extra: usize,
    },
    /// A decoded column exceeded `u32::MAX`.
    ColOverflow {
        /// Byte offset of the overflowing varint.
        at: usize,
    },
    /// `bitmaps.len()` disagrees with `tiles · row_groups`.
    BitmapCountMismatch {
        /// Expected bitmap count for the declared shape.
        expected: usize,
        /// Actual bitmap count.
        got: usize,
    },
    /// A bitmap has a bit set outside the window's rows/columns.
    BitOutOfRange {
        /// Index of the offending bitmap.
        bitmap: usize,
    },
    /// Total set bits disagree with the declared `nnz`.
    PopcountMismatch {
        /// Declared non-zero count.
        expected: u64,
        /// Set bits actually found.
        got: u64,
    },
}

impl fmt::Display for TileCodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            TileCodecError::TruncatedColStream { at } => {
                write!(f, "column stream truncated inside varint at byte {at}")
            }
            TileCodecError::OverlongVarint { at } => {
                write!(f, "overlong varint at byte {at}")
            }
            TileCodecError::TrailingColBytes { extra } => {
                write!(f, "{extra} trailing bytes after last column")
            }
            TileCodecError::ColOverflow { at } => {
                write!(f, "column overflows u32 at byte {at}")
            }
            TileCodecError::BitmapCountMismatch { expected, got } => {
                write!(f, "expected {expected} bitmaps, got {got}")
            }
            TileCodecError::BitOutOfRange { bitmap } => {
                write!(f, "bitmap {bitmap} sets a bit outside the window")
            }
            TileCodecError::PopcountMismatch { expected, got } => {
                write!(f, "declared nnz {expected} but bitmaps hold {got} bits")
            }
        }
    }
}

impl std::error::Error for TileCodecError {}

/// Bytes `v` takes as a LEB128 varint.
fn varint_len(v: u32) -> usize {
    (32 - (v | 1).leading_zeros() as usize).div_ceil(7)
}

/// The column stream's values for the strictly increasing `cols`: the
/// first column verbatim, then `gap − 1` per successor.
fn col_gaps(cols: impl Iterator<Item = u32>) -> impl Iterator<Item = u32> {
    cols.scan(None, |prev: &mut Option<u32>, c| {
        Some(match prev.replace(c) {
            None => c,
            Some(p) => {
                debug_assert!(c > p, "unique_cols must be strictly increasing");
                c - p - 1
            }
        })
    })
}

/// Append `v` as a LEB128 varint.
fn push_varint(out: &mut Vec<u8>, mut v: u32) {
    while v >= 0x80 {
        out.push((v as u8 & 0x7f) | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Read one LEB128 varint at `*pos`, advancing it. Rejects truncation,
/// overlength, and `u32` overflow with a typed error.
fn read_varint(buf: &[u8], pos: &mut usize) -> Result<u32, TileCodecError> {
    let start = *pos;
    let mut v: u64 = 0;
    for shift in 0..5u32 {
        let Some(&b) = buf.get(*pos) else {
            return Err(TileCodecError::TruncatedColStream { at: start });
        };
        *pos += 1;
        v |= u64::from(b & 0x7f) << (7 * shift);
        if b & 0x80 == 0 {
            return u32::try_from(v).map_err(|_| TileCodecError::ColOverflow { at: start });
        }
    }
    Err(TileCodecError::OverlongVarint { at: start })
}

impl TileMeta {
    /// Encode a window from its sorted distinct columns and its set-bit
    /// positions `(local_row, cond)`. Duplicate bits are an internal
    /// invariant violation (CSR construction dedups), checked in debug
    /// builds only.
    pub fn encode<I>(rows: usize, unique_cols: &[u32], entries: I) -> TileMeta
    where
        I: IntoIterator<Item = (usize, usize)>,
    {
        TileMeta::encode_from(rows, unique_cols.iter().copied(), entries)
    }

    /// [`TileMeta::encode`] from any re-walkable iterator of the sorted
    /// distinct columns. Walking the columns once for their varint sizes
    /// first lets each of the two buffers be allocated once, at its exact
    /// length.
    pub(crate) fn encode_from<C, I>(rows: usize, unique_cols: C, entries: I) -> TileMeta
    where
        C: ExactSizeIterator<Item = u32> + Clone,
        I: IntoIterator<Item = (usize, usize)>,
    {
        let nnz_cols = unique_cols.len();
        let row_groups = rows.div_ceil(GROUP_ROWS);
        let tiles = nnz_cols.div_ceil(TILE_COLS);
        let mut bitmaps = vec![0u128; tiles * row_groups];
        let mut nnz = 0u32;
        for (local_row, cond) in entries {
            debug_assert!(local_row < rows && cond < nnz_cols);
            let idx = (cond / TILE_COLS) * row_groups + local_row / GROUP_ROWS;
            let bit = (local_row % GROUP_ROWS) * TILE_COLS + cond % TILE_COLS;
            debug_assert!(bitmaps[idx] & (1u128 << bit) == 0, "duplicate CSR entry");
            bitmaps[idx] |= 1u128 << bit;
            nnz += 1;
        }

        let len = col_gaps(unique_cols.clone()).map(varint_len).sum();
        let mut col_stream = Vec::with_capacity(len);
        for gap in col_gaps(unique_cols) {
            push_varint(&mut col_stream, gap);
        }

        TileMeta {
            rows: rows as u32,
            nnz,
            nnz_cols: nnz_cols as u32,
            col_stream,
            bitmaps,
        }
    }

    /// Reassemble from raw parts, validating every invariant the accessors
    /// rely on: the column stream must decode to exactly `nnz_cols`
    /// strictly increasing columns with no trailing bytes, the bitmap
    /// count must match the declared shape, no bit may fall outside the
    /// window, and the total popcount must equal `nnz`.
    pub fn from_parts(
        rows: u32,
        nnz: u32,
        nnz_cols: u32,
        col_stream: Vec<u8>,
        bitmaps: Vec<u128>,
    ) -> Result<TileMeta, TileCodecError> {
        // Columns decode cleanly and stay within u32.
        let mut pos = 0usize;
        let mut prev: u64 = 0;
        for i in 0..nnz_cols as usize {
            let at = pos;
            let v = read_varint(&col_stream, &mut pos)?;
            prev = if i == 0 {
                u64::from(v)
            } else {
                // gap − 1 encoding: successor = prev + v + 1.
                prev + u64::from(v) + 1
            };
            if prev > u64::from(u32::MAX) {
                return Err(TileCodecError::ColOverflow { at });
            }
        }
        if pos != col_stream.len() {
            return Err(TileCodecError::TrailingColBytes {
                extra: col_stream.len() - pos,
            });
        }

        // Bitmap shape and content.
        let row_groups = (rows as usize).div_ceil(GROUP_ROWS);
        let tiles = (nnz_cols as usize).div_ceil(TILE_COLS);
        if bitmaps.len() != tiles * row_groups {
            return Err(TileCodecError::BitmapCountMismatch {
                expected: tiles * row_groups,
                got: bitmaps.len(),
            });
        }
        let mut popcount = 0u64;
        for (idx, &bm) in bitmaps.iter().enumerate() {
            let tile = idx / row_groups.max(1);
            let group = idx % row_groups.max(1);
            // Lanes beyond the window's last row and columns beyond its
            // last condensed column must stay clear.
            let live_rows = (rows as usize - group * GROUP_ROWS).min(GROUP_ROWS);
            let live_cols = (nnz_cols as usize - tile * TILE_COLS).min(TILE_COLS);
            let col_mask = if live_cols == TILE_COLS {
                0xffu128
            } else {
                (1u128 << live_cols) - 1
            };
            let mut valid = 0u128;
            for lane in 0..live_rows {
                valid |= col_mask << (lane * TILE_COLS);
            }
            if bm & !valid != 0 {
                return Err(TileCodecError::BitOutOfRange { bitmap: idx });
            }
            popcount += u64::from(bm.count_ones());
        }
        if popcount != u64::from(nnz) {
            return Err(TileCodecError::PopcountMismatch {
                expected: u64::from(nnz),
                got: popcount,
            });
        }

        Ok(TileMeta {
            rows,
            nnz,
            nnz_cols,
            col_stream,
            bitmaps,
        })
    }

    /// Rows the window covers.
    pub fn rows(&self) -> usize {
        self.rows as usize
    }

    /// Non-zeros in the window.
    pub fn nnz(&self) -> usize {
        self.nnz as usize
    }

    /// Distinct non-zero columns (the paper's "#non-zero columns").
    pub fn nnz_cols(&self) -> usize {
        self.nnz_cols as usize
    }

    /// 16×8 tiles the tensor path traverses.
    pub fn tiles(&self) -> usize {
        self.nnz_cols().div_ceil(TILE_COLS)
    }

    /// 16-row bitmap groups per tile.
    pub fn row_groups(&self) -> usize {
        self.rows().div_ceil(GROUP_ROWS)
    }

    /// Raw parts `(col_stream, bitmaps)` — the device-format payload, also
    /// what hostile-encoding tests corrupt before [`TileMeta::from_parts`].
    pub fn parts(&self) -> (&[u8], &[u128]) {
        (&self.col_stream, &self.bitmaps)
    }

    /// Size of the device-format encoding: a 12-byte header (rows, nnz,
    /// nnz_cols) plus the column stream and the bitmaps. This is what the
    /// condense step writes back and the A-operand conversion loads.
    pub fn encoded_bytes(&self) -> usize {
        12 + self.col_stream.len() + 16 * self.bitmaps.len()
    }

    /// Heap bytes this value holds (by content length, not capacity, so
    /// patched and freshly built windows account identically).
    pub fn heap_bytes(&self) -> usize {
        self.col_stream.len() + 16 * self.bitmaps.len()
    }

    /// Deterministic estimate of [`TileMeta::encoded_bytes`] from the two
    /// scalars the analytic cost models receive (`nnz_cols`, `rows`):
    /// header + bitmaps exactly, plus 3 bytes per column (the varint
    /// stream's typical share on graph windows). Cost sites that hold a
    /// real window and those that only hold scalars must bill the *same*
    /// source per site class, so planner and patcher stay bit-identical.
    pub fn nominal_bytes(nnz_cols: usize, rows: usize) -> usize {
        let tiles = nnz_cols.div_ceil(TILE_COLS);
        let row_groups = rows.div_ceil(GROUP_ROWS);
        12 + 3 * nnz_cols + 16 * tiles * row_groups
    }

    /// Decode the sorted distinct columns. Infallible on validated
    /// metadata (both constructors guarantee a clean stream).
    pub fn decode_cols(&self) -> Vec<u32> {
        let mut out = Vec::with_capacity(self.nnz_cols());
        let mut pos = 0usize;
        let mut prev = 0u32;
        for i in 0..self.nnz_cols() {
            let v = read_varint(&self.col_stream, &mut pos).expect("validated col stream");
            prev = if i == 0 { v } else { prev + v + 1 };
            out.push(prev);
        }
        out
    }

    /// Per-condensed-column non-zero counts (the tile-splitter's density
    /// input), straight off the bitmaps — no decode, no staging vector
    /// larger than the output.
    pub fn col_counts(&self) -> Vec<u32> {
        // One bit per lane at column offset 0: multiplying by a shifted
        // copy selects one column across all 16 lanes.
        const LANE_MASK: u128 = 0x0101_0101_0101_0101_0101_0101_0101_0101;
        let row_groups = self.row_groups();
        let mut counts = vec![0u32; self.nnz_cols()];
        for (cond, count) in counts.iter_mut().enumerate() {
            let tile = cond / TILE_COLS;
            let mask = LANE_MASK << (cond % TILE_COLS);
            for group in 0..row_groups {
                *count += (self.bitmaps[tile * row_groups + group] & mask).count_ones();
            }
        }
        counts
    }

    /// Condensed column indices of `local_row`'s entries, ascending —
    /// exactly the window's CSR entry order for that row (CSR columns are
    /// strictly increasing, so are condensed indices). Iterating rows
    /// `0..rows` and chaining these walks reproduces the old per-entry
    /// `cond_idx` vector without materializing it.
    pub fn row_cond_indices(&self, local_row: usize) -> RowCondIter<'_> {
        let row_groups = self.row_groups();
        RowCondIter {
            bitmaps: &self.bitmaps,
            row_groups,
            group: local_row / GROUP_ROWS,
            lane_shift: (local_row % GROUP_ROWS) * TILE_COLS,
            tile: 0,
            tiles: self.tiles(),
            pending: 0,
        }
    }
}

/// Iterator over one row's condensed column indices (see
/// [`TileMeta::row_cond_indices`]).
pub struct RowCondIter<'a> {
    bitmaps: &'a [u128],
    row_groups: usize,
    group: usize,
    lane_shift: usize,
    tile: usize,
    tiles: usize,
    /// Remaining set bits of the current tile's lane byte, shifted so bit
    /// `i` means condensed column `(tile − 1) · 8 + i`.
    pending: u8,
}

impl Iterator for RowCondIter<'_> {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        loop {
            if self.pending != 0 {
                let bit = self.pending.trailing_zeros();
                self.pending &= self.pending - 1;
                return Some(((self.tile - 1) * TILE_COLS) as u32 + bit);
            }
            if self.tile == self.tiles {
                return None;
            }
            let bm = self.bitmaps[self.tile * self.row_groups + self.group];
            self.pending = (bm >> self.lane_shift) as u8;
            self.tile += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TileMeta {
        // 2 rows, columns {3, 130, 131}: row 0 hits 3 and 131, row 1 hits
        // 130.
        TileMeta::encode(2, &[3, 130, 131], [(0, 0), (0, 2), (1, 1)])
    }

    #[test]
    fn roundtrips_through_parts() {
        let m = sample();
        let (cs, bm) = m.parts();
        let back = TileMeta::from_parts(2, 3, 3, cs.to_vec(), bm.to_vec()).expect("valid parts");
        assert_eq!(back, m);
        assert_eq!(back.decode_cols(), vec![3, 130, 131]);
    }

    #[test]
    fn row_walk_matches_entry_order() {
        let m = sample();
        let r0: Vec<u32> = m.row_cond_indices(0).collect();
        let r1: Vec<u32> = m.row_cond_indices(1).collect();
        assert_eq!(r0, vec![0, 2]);
        assert_eq!(r1, vec![1]);
        assert_eq!(m.col_counts(), vec![1, 1, 1]);
    }

    #[test]
    fn truncated_stream_is_typed_error() {
        let m = sample();
        let (cs, bm) = m.parts();
        let cut = cs[..cs.len() - 1].to_vec();
        let err = TileMeta::from_parts(2, 3, 3, cut, bm.to_vec());
        assert!(matches!(
            err,
            Err(TileCodecError::TruncatedColStream { .. })
                | Err(TileCodecError::TrailingColBytes { .. })
        ));
    }

    #[test]
    fn stray_bit_is_rejected() {
        let m = sample();
        let (cs, bm) = m.parts();
        let mut bad = bm.to_vec();
        // Lane 5 does not exist in a 2-row window.
        bad[0] |= 1u128 << (5 * TILE_COLS);
        assert!(matches!(
            TileMeta::from_parts(2, 3, 3, cs.to_vec(), bad),
            Err(TileCodecError::BitOutOfRange { bitmap: 0 })
        ));
    }

    #[test]
    fn varint_len_matches_the_encoder() {
        for v in [
            0,
            1,
            0x7f,
            0x80,
            0x3fff,
            0x4000,
            0x1f_ffff,
            0x20_0000,
            0xfff_ffff,
            0x1000_0000,
            u32::MAX,
        ] {
            let mut out = Vec::new();
            push_varint(&mut out, v);
            assert_eq!(varint_len(v), out.len(), "{v:#x}");
        }
    }

    #[test]
    fn buffers_are_allocated_at_their_exact_length() {
        let m = TileMeta::encode(2, &[3, 130, 131, 100_000], [(0, 0), (0, 3), (1, 1)]);
        assert_eq!(m.col_stream.capacity(), m.col_stream.len());
        assert_eq!(m.bitmaps.capacity(), m.bitmaps.len());
        assert_eq!(m.decode_cols(), vec![3, 130, 131, 100_000]);
    }

    #[test]
    fn empty_window_encodes_to_nothing() {
        let m = TileMeta::encode(16, &[], std::iter::empty());
        assert_eq!(m.nnz(), 0);
        assert_eq!(m.heap_bytes(), 0);
        assert_eq!(m.decode_cols(), Vec::<u32>::new());
        assert_eq!(m.row_cond_indices(3).count(), 0);
    }
}
