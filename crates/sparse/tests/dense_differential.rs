//! Dense differential suite: `DenseMatrix::matmul` and `t_matmul` must
//! produce the bit pattern of the scalar triple loop — each output element
//! starts at `+0.0` and adds `a·b` for k ascending, as a separate multiply
//! and add, skipping a zero multiplier — at every shape and thread count.
//!
//! The shapes cover every size from 0 to 9 and the sizes around 16, 32
//! and 74 in all three dimensions, so every register-tile edge, every
//! empty dimension and several pool blocks occur. The values mix `±0`,
//! ReLU-style runs of zeros, subnormals, magnitudes whose products
//! overflow, and — in the non-finite half — `±inf` and NaN, so a zero
//! multiplier meets an infinite or NaN `b` (the oracle skips it; `0·inf`
//! would be NaN). Bits must match exactly; a NaN only has to meet a NaN.
//!
//! Single `#[test]` on purpose: the thread override and the parallel mode
//! are process-global, so concurrent tests in one binary would trample
//! each other's setting.

use graph_sparse::DenseMatrix;
use hc_parallel::ParallelMode;

const SIZES: [usize; 17] = [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 31, 32, 33, 74];
const THREADS: [usize; 3] = [1, 2, 8];

/// xorshift64* stream.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// Uniform in `0..n`.
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// A `rows × cols` matrix of mixed values. Rows carry ReLU-style runs of
/// zeros; with `non_finite`, about one value in thirty is `±inf` or NaN.
fn values(rows: usize, cols: usize, seed: u64, non_finite: bool) -> DenseMatrix {
    let mut rng = Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1);
    let mut m = DenseMatrix::zeros(rows, cols);
    for r in 0..rows {
        let mut zeros = 0;
        for v in m.row_mut(r) {
            if zeros > 0 {
                zeros -= 1;
                *v = if rng.below(4) == 0 { -0.0 } else { 0.0 };
                continue;
            }
            let sign = if rng.below(2) == 0 { 1.0f32 } else { -1.0 };
            *v = match rng.below(30) {
                0..=5 => {
                    zeros = rng.below(6);
                    0.0
                }
                6 => -0.0,
                7 | 8 => sign * f32::from_bits(1 + rng.below(0x7f_ffff) as u32),
                9 => sign * 3.0e38,
                10 => sign * 1.0e20,
                11 if non_finite => match rng.below(3) {
                    0 => f32::INFINITY,
                    1 => f32::NEG_INFINITY,
                    _ => f32::from_bits(0x7fc0_0000 | rng.below(0x3f_ffff) as u32),
                },
                _ => ((rng.next() >> 11) as f64 / (1u64 << 53) as f64 * 4.0 - 2.0) as f32,
            };
        }
    }
    m
}

/// The scalar triple loop: `out[r][c] = Σ_k a(r, k) · b[k][c]`, k
/// ascending from `+0.0`, a zero multiplier skipped.
fn oracle(m: usize, kd: usize, a: impl Fn(usize, usize) -> f32, b: &DenseMatrix) -> DenseMatrix {
    let mut out = DenseMatrix::zeros(m, b.cols);
    for r in 0..m {
        for k in 0..kd {
            let av = a(r, k);
            if av == 0.0 {
                continue;
            }
            for (o, &bv) in out.row_mut(r).iter_mut().zip(b.row(k)) {
                *o += av * bv;
            }
        }
    }
    out
}

fn assert_bits(got: &DenseMatrix, want: &DenseMatrix, at: &dyn Fn() -> String) {
    assert_eq!(
        (got.rows, got.cols),
        (want.rows, want.cols),
        "shape, {}",
        at()
    );
    for (i, (g, w)) in got.data.iter().zip(&want.data).enumerate() {
        let same = g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan());
        assert!(
            same,
            "element ({}, {}): got {g:e} ({:#010x}), want {w:e} ({:#010x}), {}",
            i / got.cols,
            i % got.cols,
            g.to_bits(),
            w.to_bits(),
            at()
        );
    }
}

#[test]
fn dense_kernels_match_the_scalar_loop_bit_for_bit() {
    let saved = hc_parallel::thread_override();
    hc_parallel::set_parallel_mode(ParallelMode::Force);
    // Both tile variants must run: the all-finite one and the one that
    // skips zero multipliers of a non-finite `b`.
    let mut finite_cases = [0usize; 2];
    let mut seed = 0u64;
    for m in SIZES {
        for kd in SIZES {
            for n in SIZES {
                for non_finite in [false, true] {
                    seed += 1;
                    // matmul: (m × kd) · (kd × n).
                    let a = values(m, kd, seed, non_finite);
                    let b = values(kd, n, seed ^ 0x55, non_finite);
                    finite_cases[b.data.iter().all(|v| v.is_finite()) as usize] += 1;
                    let want = oracle(m, kd, |r, k| a[(r, k)], &b);
                    // t_matmul: (kd × m)ᵀ · (kd × n).
                    let s = values(kd, m, seed ^ 0xaa, non_finite);
                    let want_t = oracle(m, kd, |r, k| s[(k, r)], &b);
                    let via_transpose = s.transposed().matmul(&b);
                    for threads in THREADS {
                        hc_parallel::set_threads(threads);
                        let at = |op: &str| {
                            let op = op.to_string();
                            move || {
                                format!(
                                    "{op} {m}x{kd}x{n}, non-finite {non_finite}, {threads} threads"
                                )
                            }
                        };
                        assert_bits(&a.matmul(&b), &want, &at("matmul"));
                        let got_t = s.t_matmul(&b);
                        assert_bits(&got_t, &want_t, &at("t_matmul"));
                        assert_bits(&got_t, &via_transpose, &at("t_matmul vs transposed"));
                    }
                }
            }
        }
    }
    hc_parallel::set_parallel_mode(ParallelMode::Auto);
    hc_parallel::set_threads(saved);
    assert!(
        finite_cases.iter().all(|&c| c > 100),
        "non-finite / all-finite b cases: {finite_cases:?}"
    );
}
