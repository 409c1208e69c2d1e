//! Row-major dense matrices (the `X`, `Z`, `W` operands).

use std::ops::{Index, IndexMut};

/// Dense row-major f32 matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct DenseMatrix {
    /// Number of rows.
    pub rows: usize,
    /// Number of columns.
    pub cols: usize,
    /// Row-major storage, length `rows · cols`.
    pub data: Vec<f32>,
}

impl DenseMatrix {
    /// All-zeros matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        DenseMatrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Build from row slices.
    pub fn from_rows(rows: &[&[f32]]) -> Self {
        let ncols = rows.first().map_or(0, |r| r.len());
        let mut data = Vec::with_capacity(rows.len() * ncols);
        for r in rows {
            assert_eq!(r.len(), ncols, "ragged rows");
            data.extend_from_slice(r);
        }
        DenseMatrix {
            rows: rows.len(),
            cols: ncols,
            data,
        }
    }

    /// Build from a generator function over (row, col).
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut m = DenseMatrix::zeros(rows, cols);
        for r in 0..rows {
            for c in 0..cols {
                m[(r, c)] = f(r, c);
            }
        }
        m
    }

    /// Deterministic pseudo-random features in [-1, 1] (for reproducible
    /// workloads without threading an RNG everywhere).
    pub fn random_features(rows: usize, cols: usize, seed: u64) -> Self {
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).max(1);
        DenseMatrix::from_fn(rows, cols, |_, _| {
            // xorshift64*
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            let bits = state.wrapping_mul(0x2545_f491_4f6c_dd1d);
            ((bits >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0) as f32
        })
    }

    /// Borrow row `r`.
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrow row `r`.
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Dense matrix multiply `self · other`: the host numerics of the
    /// GNN Update gemm, whose simulated kernel is
    /// `hc_core::fusion::gemm_run`.
    ///
    /// Each output element starts at `+0.0` and adds `self[r][k] ·
    /// other[k][c]` for k ascending, a separate f32 multiply and add, with
    /// a zero multiplier adding nothing — the serial triple loop's bits at
    /// any thread count. The work runs as 4 × 8 register tiles over
    /// packed panels; the pool gets blocks of output rows, which run at
    /// AVX2 width on a CPU that has AVX2, with the same bits.
    pub fn matmul(&self, other: &DenseMatrix) -> DenseMatrix {
        self.matmul_with(other, true)
    }

    /// [`DenseMatrix::matmul`], through the AVX2 twin only when `twin`
    /// asks for it and the CPU has AVX2.
    fn matmul_with(&self, other: &DenseMatrix, twin: bool) -> DenseMatrix {
        assert_eq!(self.cols, other.rows, "matmul dimension mismatch");
        let (kd, n) = (self.cols, other.cols);
        let mut out = DenseMatrix::zeros(self.rows, n);
        if out.data.is_empty() || kd == 0 {
            return out;
        }
        let skip_zero = !other.data.iter().all(|v| v.is_finite());
        let mut b = Vec::with_capacity(n.div_ceil(NR) * kd);
        for c0 in (0..n).step_by(NR) {
            pack_cols(other, 0..kd, c0, &mut b);
        }
        let panels: Vec<&[[f32; NR]]> = b.chunks_exact(kd).collect();
        let work = 2 * self.rows as u64 * kd as u64 * n as u64;
        let avx2 = twin && avx2();
        hc_parallel::par_chunks_mut(&mut out.data, BLOCK_ROWS * n, work, |blk, rows| {
            let r0 = blk * BLOCK_ROWS;
            if avx2 {
                // SAFETY: `avx2` holds only when `avx2()` found AVX2 on
                // this CPU.
                unsafe { matmul_block_avx2(self, &panels, n, skip_zero, r0, rows) }
            } else {
                matmul_block(self, &panels, n, skip_zero, r0, rows)
            }
        });
        out
    }

    /// `selfᵀ · other` without building the transpose: the weight
    /// gradients `Hᵀ · G` of the GNN backward pass.
    ///
    /// Bit-identical to `self.transposed().matmul(other)`: each output
    /// element adds `self[k][r] · other[k][c]` for k ascending from
    /// `+0.0`, a zero multiplier adding nothing. The pool gets blocks of
    /// output rows, which run at AVX2 width on a CPU that has AVX2, with
    /// the same bits.
    pub fn t_matmul(&self, other: &DenseMatrix) -> DenseMatrix {
        self.t_matmul_with(other, true)
    }

    /// [`DenseMatrix::t_matmul`], through the AVX2 twin only when `twin`
    /// asks for it and the CPU has AVX2.
    fn t_matmul_with(&self, other: &DenseMatrix, twin: bool) -> DenseMatrix {
        assert_eq!(self.rows, other.rows, "t_matmul dimension mismatch");
        let (kd, n) = (self.rows, other.cols);
        let mut out = DenseMatrix::zeros(self.cols, n);
        if out.data.is_empty() || kd == 0 {
            return out;
        }
        let skip_zero = !other.data.iter().all(|v| v.is_finite());
        let work = 2 * self.cols as u64 * kd as u64 * n as u64;
        let avx2 = twin && avx2();
        hc_parallel::par_chunks_mut(&mut out.data, BLOCK_ROWS_T * n, work, |blk, rows| {
            let r0 = blk * BLOCK_ROWS_T;
            if avx2 {
                // SAFETY: `avx2` holds only when `avx2()` found AVX2 on
                // this CPU.
                unsafe { t_matmul_block_avx2(self, other, skip_zero, r0, rows) }
            } else {
                t_matmul_block(self, other, skip_zero, r0, rows)
            }
        });
        out
    }

    /// Transposed copy.
    pub fn transposed(&self) -> DenseMatrix {
        let mut t = DenseMatrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                t[(c, r)] = self[(r, c)];
            }
        }
        t
    }

    /// Element-wise `self + other`.
    pub fn add(&self, other: &DenseMatrix) -> DenseMatrix {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| a + b)
            .collect();
        DenseMatrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// Element-wise scale.
    pub fn scale(&self, s: f32) -> DenseMatrix {
        DenseMatrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|v| v * s).collect(),
        }
    }

    /// Apply `f` element-wise.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> DenseMatrix {
        DenseMatrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&v| f(v)).collect(),
        }
    }

    /// Max absolute difference against another matrix (test helper).
    pub fn max_abs_diff(&self, other: &DenseMatrix) -> f32 {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f32::max)
    }

    /// Storage footprint in bytes.
    pub fn byte_size(&self) -> u64 {
        (self.data.len() * 4) as u64
    }
}

impl Index<(usize, usize)> for DenseMatrix {
    type Output = f32;
    fn index(&self, (r, c): (usize, usize)) -> &f32 {
        debug_assert!(r < self.rows && c < self.cols);
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for DenseMatrix {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f32 {
        debug_assert!(r < self.rows && c < self.cols);
        &mut self.data[r * self.cols + c]
    }
}

/// Whether the running CPU has AVX2, which the `_avx2` twins need. The
/// standard library caches the answer after the first call.
fn avx2() -> bool {
    #[cfg(target_arch = "x86_64")]
    return std::is_x86_feature_detected!("avx2");
    #[cfg(not(target_arch = "x86_64"))]
    false
}

/// One pool block of [`DenseMatrix::matmul`]: output rows `r0 ..` of
/// `lhs · other` into `rows`, `n` wide, with `other` packed as `panels`
/// of `NR` columns.
#[inline(always)]
fn matmul_block(
    lhs: &DenseMatrix,
    panels: &[&[[f32; NR]]],
    n: usize,
    skip_zero: bool,
    r0: usize,
    rows: &mut [f32],
) {
    let mut a = Vec::with_capacity(lhs.cols);
    let nrows = rows.len() / n;
    for t0 in (0..nrows).step_by(MR) {
        let mr = MR.min(nrows - t0);
        pack_rows(lhs, r0 + t0, mr, &mut a);
        let tile_rows = &mut rows[t0 * n..(t0 + mr) * n];
        for (p, panel) in panels.iter().enumerate() {
            let acc = tile(skip_zero, [[0.0; NR]; MR], &a, panel);
            store(&acc, tile_rows, n, p * NR);
        }
    }
}

/// [`matmul_block`] compiled for AVX2: the same source, so the same f32
/// multiplies and adds in the same order, eight lanes at a time.
///
/// # Safety
///
/// The running CPU must have AVX2.
#[cfg_attr(target_arch = "x86_64", target_feature(enable = "avx2"))]
unsafe fn matmul_block_avx2(
    lhs: &DenseMatrix,
    panels: &[&[[f32; NR]]],
    n: usize,
    skip_zero: bool,
    r0: usize,
    rows: &mut [f32],
) {
    matmul_block(lhs, panels, n, skip_zero, r0, rows)
}

/// One pool block of [`DenseMatrix::t_matmul`]: output rows `r0 ..` of
/// `lhsᵀ · other` into `rows`. It walks the rows of `lhs` and `other` in
/// ascending, cache-sized panels and carries its register tiles from one
/// panel to the next through the output.
#[inline(always)]
fn t_matmul_block(
    lhs: &DenseMatrix,
    other: &DenseMatrix,
    skip_zero: bool,
    r0: usize,
    rows: &mut [f32],
) {
    let (kd, n) = (lhs.rows, other.cols);
    let mut a = Vec::with_capacity(PANEL);
    let mut b = Vec::with_capacity(n.div_ceil(NR) * PANEL);
    let nrows = rows.len() / n;
    for k0 in (0..kd).step_by(PANEL) {
        let ks = k0..(k0 + PANEL).min(kd);
        b.clear();
        for c0 in (0..n).step_by(NR) {
            pack_cols(other, ks.clone(), c0, &mut b);
        }
        for t0 in (0..nrows).step_by(MR) {
            let mr = MR.min(nrows - t0);
            a.clear();
            pack_cols(lhs, ks.clone(), r0 + t0, &mut a);
            let tile_rows = &mut rows[t0 * n..(t0 + mr) * n];
            for (p, panel) in b.chunks_exact(ks.len()).enumerate() {
                let acc = tile(skip_zero, load(tile_rows, n, p * NR), &a, panel);
                store(&acc, tile_rows, n, p * NR);
            }
        }
    }
}

/// [`t_matmul_block`] compiled for AVX2: the same source, so the same f32
/// multiplies and adds in the same order, eight lanes at a time.
///
/// # Safety
///
/// The running CPU must have AVX2.
#[cfg_attr(target_arch = "x86_64", target_feature(enable = "avx2"))]
unsafe fn t_matmul_block_avx2(
    lhs: &DenseMatrix,
    other: &DenseMatrix,
    skip_zero: bool,
    r0: usize,
    rows: &mut [f32],
) {
    t_matmul_block(lhs, other, skip_zero, r0, rows)
}

/// Output rows of one register tile of the dense kernels.
const MR: usize = 4;
/// Output columns of one register tile (two 4-lane vectors).
const NR: usize = 8;
/// Output rows per pool block of [`DenseMatrix::matmul`].
const BLOCK_ROWS: usize = 8 * MR;
/// Output rows per pool block of [`DenseMatrix::t_matmul`]: one 64-byte
/// line of each row of `self`.
const BLOCK_ROWS_T: usize = 4 * MR;
/// Rows of `self` and `other` per cache panel of
/// [`DenseMatrix::t_matmul`].
const PANEL: usize = 256;

/// An `MR × NR` accumulator tile.
type Acc = [[f32; NR]; MR];

/// Run one register tile over a k-major panel pair: `acc[i][j] +=
/// a[k][i] · b[k][j]` for k ascending, as a separate multiply and add.
///
/// With `skip_zero` a zero multiplier adds nothing, so `0·inf` and
/// `0·NaN` never reach the sum. Without it the caller has checked that
/// every `b` is finite: a zero multiplier then adds `±0`, which leaves the
/// accumulator's bits alone. An accumulator that starts at `+0.0` never
/// becomes `−0.0`, since round-to-nearest gives `+0` for `x + (−x)` and
/// for `+0 + −0`. Both variants give the bits of the scalar loop that
/// skips zero multipliers.
#[inline(always)]
fn tile(skip_zero: bool, acc: Acc, a: &[[f32; MR]], b: &[[f32; NR]]) -> Acc {
    if skip_zero {
        tile_k::<true>(acc, a, b)
    } else {
        tile_k::<false>(acc, a, b)
    }
}

#[inline(always)]
fn tile_k<const SKIP_ZERO: bool>(mut acc: Acc, a: &[[f32; MR]], b: &[[f32; NR]]) -> Acc {
    for (ak, bk) in a.iter().zip(b) {
        for (row, &av) in acc.iter_mut().zip(ak) {
            for (o, &bv) in row.iter_mut().zip(bk) {
                let p = av * bv;
                *o += if SKIP_ZERO && av == 0.0 { 0.0 } else { p };
            }
        }
    }
    acc
}

/// Append columns `c0 .. c0 + W` of rows `ks` of `m` to `out` as k-major
/// tiles, zero-padded past `m.cols`.
#[inline(always)]
fn pack_cols<const W: usize>(
    m: &DenseMatrix,
    ks: std::ops::Range<usize>,
    c0: usize,
    out: &mut Vec<[f32; W]>,
) {
    let rows = m.data[ks.start * m.cols..ks.end * m.cols].chunks_exact(m.cols);
    if c0 + W <= m.cols {
        out.extend(rows.map(|row| {
            let mut t = [0.0; W];
            t.copy_from_slice(&row[c0..c0 + W]);
            t
        }));
    } else {
        out.extend(rows.map(|row| {
            let mut t = [0.0; W];
            for (t, &v) in t.iter_mut().zip(&row[c0..]) {
                *t = v;
            }
            t
        }));
    }
}

/// Pack the `mr <= MR` rows from `r0` of `m` into `out` as k-major tiles
/// (one per column), zero-padded to `MR` lanes.
#[inline(always)]
fn pack_rows(m: &DenseMatrix, r0: usize, mr: usize, out: &mut Vec<[f32; MR]>) {
    out.clear();
    out.resize(m.cols, [0.0; MR]);
    for i in 0..mr {
        for (t, &v) in out.iter_mut().zip(m.row(r0 + i)) {
            t[i] = v;
        }
    }
}

/// The tile at column `c0` of `tile_rows`, up to `MR` output rows of
/// width `n`.
#[inline(always)]
fn load(tile_rows: &[f32], n: usize, c0: usize) -> Acc {
    let mut acc = [[0.0; NR]; MR];
    for (a, row) in acc.iter_mut().zip(tile_rows.chunks(n)) {
        let row = &row[c0..];
        if row.len() >= NR {
            a.copy_from_slice(&row[..NR]);
        } else {
            a[..row.len()].copy_from_slice(row);
        }
    }
    acc
}

/// Write `acc` back at column `c0` of `tile_rows`, up to `MR` output rows
/// of width `n`.
#[inline(always)]
fn store(acc: &Acc, tile_rows: &mut [f32], n: usize, c0: usize) {
    for (a, row) in acc.iter().zip(tile_rows.chunks_mut(n)) {
        let row = &mut row[c0..];
        if row.len() >= NR {
            row[..NR].copy_from_slice(a);
        } else {
            let w = row.len();
            row.copy_from_slice(&a[..w]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_rows_and_index() {
        let m = DenseMatrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(m[(0, 1)], 2.0);
        assert_eq!(m[(1, 0)], 3.0);
        assert_eq!(m.row(1), &[3.0, 4.0]);
    }

    #[test]
    fn matmul_small() {
        let a = DenseMatrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = DenseMatrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c.row(0), &[19.0, 22.0]);
        assert_eq!(c.row(1), &[43.0, 50.0]);
    }

    #[test]
    fn matmul_identity() {
        let a = DenseMatrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let i = DenseMatrix::from_fn(2, 2, |r, c| if r == c { 1.0 } else { 0.0 });
        assert_eq!(a.matmul(&i), a);
    }

    #[test]
    fn t_matmul_small() {
        // selfᵀ is `matmul_small`'s left operand.
        let a = DenseMatrix::from_rows(&[&[1.0, 3.0], &[2.0, 4.0]]);
        let b = DenseMatrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.t_matmul(&b);
        assert_eq!(c.row(0), &[19.0, 22.0]);
        assert_eq!(c.row(1), &[43.0, 50.0]);
        assert_eq!(c, a.transposed().matmul(&b));
    }

    #[test]
    fn transpose_roundtrip() {
        let a = DenseMatrix::random_features(7, 3, 42);
        assert_eq!(a.transposed().transposed(), a);
    }

    #[test]
    fn transpose_matmul_identity_property() {
        // (A·B)^T == B^T·A^T
        let a = DenseMatrix::random_features(4, 5, 1);
        let b = DenseMatrix::random_features(5, 3, 2);
        let lhs = a.matmul(&b).transposed();
        let rhs = b.transposed().matmul(&a.transposed());
        assert!(lhs.max_abs_diff(&rhs) < 1e-5);
    }

    #[test]
    fn random_features_deterministic_and_bounded() {
        let a = DenseMatrix::random_features(10, 10, 7);
        let b = DenseMatrix::random_features(10, 10, 7);
        assert_eq!(a, b);
        assert!(a.data.iter().all(|v| (-1.0..=1.0).contains(v)));
        // Not all equal.
        assert!(a.data.iter().any(|&v| v != a.data[0]));
    }

    #[test]
    fn add_scale_map() {
        let a = DenseMatrix::from_rows(&[&[1.0, -2.0]]);
        assert_eq!(a.add(&a).row(0), &[2.0, -4.0]);
        assert_eq!(a.scale(3.0).row(0), &[3.0, -6.0]);
        assert_eq!(a.map(f32::abs).row(0), &[1.0, 2.0]);
    }

    /// `dense_differential`'s sizes: every size to 9 and those around 16,
    /// 32 and 74.
    const TWIN_SIZES: [usize; 17] = [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 31, 32, 33, 74];

    /// A `rows × cols` matrix of mixed values: `±0`, runs of zeros,
    /// subnormals, large magnitudes and, with `non_finite`, `±inf` and
    /// NaN. An xorshift64* stream from `seed`.
    fn twin_values(rows: usize, cols: usize, seed: u64, non_finite: bool) -> DenseMatrix {
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        let mut next = move || {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            state.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 32
        };
        let mut zeros = 0;
        DenseMatrix::from_fn(rows, cols, |_, _| {
            let bits = next() as u32;
            if zeros > 0 {
                zeros -= 1;
                return if bits.is_multiple_of(4) { -0.0 } else { 0.0 };
            }
            let sign = if bits & 1 == 0 { 1.0f32 } else { -1.0 };
            match bits % 30 {
                0..=5 => {
                    zeros = bits / 30 % 6;
                    0.0
                }
                6 => -0.0,
                7 | 8 => sign * f32::from_bits(1 + bits / 30 % 0x7f_ffff),
                9 => sign * 3.0e38,
                10 if non_finite => f32::INFINITY,
                11 if non_finite => f32::NEG_INFINITY,
                12 if non_finite => f32::from_bits(0x7fc0_0000 | (bits / 30 % 0x3f_ffff)),
                _ => sign * (bits / 30) as f32 / (1 << 26) as f32,
            }
        })
    }

    /// Equal bits, or NaN on both sides: which of two NaN operands an add
    /// returns is left open by IEEE 754 and by Rust, so a NaN's payload is
    /// not part of the kernels' contract.
    fn assert_same_bits(base: &DenseMatrix, twin: &DenseMatrix, at: &dyn Fn() -> String) {
        assert_eq!((base.rows, base.cols), (twin.rows, twin.cols), "{}", at());
        for (i, (b, t)) in base.data.iter().zip(&twin.data).enumerate() {
            assert!(
                b.to_bits() == t.to_bits() || (b.is_nan() && t.is_nan()),
                "element {i}: baseline {b:e} ({:#010x}), AVX2 twin {t:e} ({:#010x}), {}",
                b.to_bits(),
                t.to_bits(),
                at()
            );
        }
    }

    /// Says past the test harness's output capture that no twin ran, so
    /// a pass on a CPU without AVX2 does not read as a comparison.
    fn note_baseline_only(test: &str) {
        use std::io::Write;
        let _ = writeln!(
            std::io::stderr(),
            "{test}: this CPU has no AVX2, so only the baseline body ran"
        );
    }

    #[test]
    fn avx2_twins_match_the_baseline_bits() {
        // Both tile variants must run: the all-finite one and the one that
        // skips zero multipliers of a non-finite `other`.
        let mut finite_cases = [0usize; 2];
        let mut seed = 0u64;
        for m in TWIN_SIZES {
            for kd in TWIN_SIZES {
                for n in TWIN_SIZES {
                    for non_finite in [false, true] {
                        seed += 1;
                        let a = twin_values(m, kd, seed, non_finite);
                        let s = twin_values(kd, m, seed ^ 0xaa, non_finite);
                        let b = twin_values(kd, n, seed ^ 0x55, non_finite);
                        finite_cases[b.data.iter().all(|v| v.is_finite()) as usize] += 1;
                        let at = |op: &'static str| {
                            move || format!("{op} {m}x{kd}x{n}, non-finite {non_finite}")
                        };
                        let (base, twin) = (a.matmul_with(&b, false), a.matmul_with(&b, true));
                        assert_same_bits(&base, &twin, &at("matmul"));
                        let (base, twin) = (s.t_matmul_with(&b, false), s.t_matmul_with(&b, true));
                        assert_same_bits(&base, &twin, &at("t_matmul"));
                    }
                }
            }
        }
        assert!(
            finite_cases.iter().all(|&c| c > 100),
            "non-finite / all-finite `other` cases: {finite_cases:?}"
        );
        if !avx2() {
            note_baseline_only("avx2_twins_match_the_baseline_bits");
        }
    }
}
