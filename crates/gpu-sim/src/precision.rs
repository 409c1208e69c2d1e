//! Floating-point precision emulation for the Tensor-core path.
//!
//! The paper runs Tensor cores with TF32 inputs in the main body (§III-B,
//! following TC-GNN) and evaluates FP16 and BF16 in Appendix B. We emulate
//! each format in software: values are quantized to the format's mantissa
//! before a WMMA multiply, with products accumulated in FP32, exactly like
//! the hardware does. This makes precision choice observable in the numerics
//! (Appendix B's Table VII experiment) rather than a cosmetic flag.

/// Input precision of a Tensor-core WMMA operation.
///
/// ```
/// use gpu_sim::Precision;
/// // TF32 keeps 10 mantissa bits: 1 + 2^-11 rounds away.
/// assert_eq!(Precision::Tf32.quantize(1.0 + f32::EPSILON), 1.0);
/// assert_eq!(Precision::Fp32.quantize(1.0 + f32::EPSILON), 1.0 + f32::EPSILON);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Precision {
    /// Full FP32 on CUDA cores (no quantization).
    Fp32,
    /// TF32: FP32 range, 10-bit mantissa. WMMA shape m16·n16·k8 — the paper
    /// states the TF32 input requirement as 16×8×16 (A tiles are 16×8).
    Tf32,
    /// IEEE half: 5-bit exponent, 10-bit mantissa. WMMA m16·n16·k16.
    Fp16,
    /// bfloat16: FP32 range, 7-bit mantissa. WMMA m16·n16·k16.
    Bf16,
}

impl Precision {
    /// K-dimension of one WMMA tile at this precision: how many columns of a
    /// sparse-matrix tile a single WMMA consumes. TF32 tiles are 16×8
    /// (Appendix B: half requires 16×16×16, which wastes more zeros).
    pub fn tile_k(self) -> usize {
        match self {
            Precision::Fp32 | Precision::Tf32 => 8,
            Precision::Fp16 | Precision::Bf16 => 16,
        }
    }

    /// Bytes one element occupies in device memory (TF32 is stored as
    /// 32-bit; half/bfloat16 halve all operand traffic).
    pub fn storage_bytes(self) -> u64 {
        match self {
            Precision::Fp32 | Precision::Tf32 => 4,
            Precision::Fp16 | Precision::Bf16 => 2,
        }
    }

    /// Display name used in harness output.
    pub fn name(self) -> &'static str {
        match self {
            Precision::Fp32 => "fp32",
            Precision::Tf32 => "tf32",
            Precision::Fp16 => "half",
            Precision::Bf16 => "bfloat",
        }
    }

    /// Quantize `x` to this precision (result widened back to f32), using
    /// round-to-nearest-even, like the hardware conversion units.
    #[inline]
    pub fn quantize(self, x: f32) -> f32 {
        match self {
            Precision::Fp32 => x,
            Precision::Tf32 => truncate_mantissa_rne(x, 10),
            Precision::Bf16 => truncate_mantissa_rne(x, 7),
            Precision::Fp16 => f16_round_trip(x),
        }
    }

    /// One row update at this precision:
    /// `z[j] += a * self.quantize(x[j])` for each `j`. `a` is the caller's
    /// (already quantized) sparse value; `z` and `x` are one output row and
    /// one dense-operand row of equal length. Its callers are the
    /// Straightforward family, which picks the precision per tile, and
    /// the FP16 baselines (Sputnik, TileCSR). The HC row loop
    /// (`hc_core`'s hybrid, tensor and CUDA numerics) matches the
    /// precision once per window or row and runs the same arithmetic
    /// inline.
    ///
    /// The precision is matched once, outside the loop, so each arm is a
    /// straight-line loop over independent lanes that the compiler
    /// vectorizes (FP32, TF32 and BF16 carry no per-element control flow).
    /// Each `z[j]` still receives exactly one `+= a * q` per call, so the
    /// result is bit-identical to the scalar per-element loop.
    ///
    /// ```
    /// use gpu_sim::Precision;
    /// let mut z = [1.0f32, 2.0];
    /// Precision::Tf32.axpy(&mut z, 2.0, &[1.0 + f32::EPSILON, 0.5]);
    /// assert_eq!(z, [3.0, 3.0]);
    /// ```
    #[inline]
    pub fn axpy(self, z: &mut [f32], a: f32, x: &[f32]) {
        #[inline(always)]
        fn lanes(z: &mut [f32], a: f32, x: &[f32], q: impl Fn(f32) -> f32) {
            debug_assert_eq!(z.len(), x.len(), "axpy operands differ in length");
            for (o, &xv) in z.iter_mut().zip(x) {
                *o += a * q(xv);
            }
        }
        match self {
            Precision::Fp32 => lanes(z, a, x, |v| v),
            Precision::Tf32 => lanes(z, a, x, |v| truncate_mantissa_rne(v, 10)),
            Precision::Bf16 => lanes(z, a, x, |v| truncate_mantissa_rne(v, 7)),
            Precision::Fp16 => lanes(z, a, x, f16_round_trip),
        }
    }
}

/// Round `x` to `bits` mantissa bits (keeping the f32 exponent range) with
/// round-to-nearest-even on the dropped bits, without branches: adding
/// `half - 1 + kept LSB` carries into the kept bits exactly when the
/// dropped bits exceed half, or equal it with an odd kept LSB; masking then
/// clears the dropped bits. A carry out of the mantissa bumps the exponent,
/// which is the correct rounding (up to ±inf past the largest finite).
/// Non-finite inputs are selected through unchanged.
#[inline]
fn truncate_mantissa_rne(x: f32, bits: u32) -> f32 {
    let drop = 23 - bits;
    let u = x.to_bits();
    let lsb = (u >> drop) & 1;
    let rounded = u.wrapping_add((1u32 << (drop - 1)) - 1 + lsb) & !((1u32 << drop) - 1);
    if x.is_finite() {
        f32::from_bits(rounded)
    } else {
        x
    }
}

/// Convert f32 → IEEE binary16 → f32 (round-to-nearest-even, with proper
/// overflow-to-infinity and subnormal flushing behaviour).
fn f16_round_trip(x: f32) -> f32 {
    f16_to_f32(f32_to_f16(x))
}

/// f32 → IEEE 754 binary16 bits.
pub fn f32_to_f16(x: f32) -> u16 {
    let bits = x.to_bits();
    let sign = ((bits >> 16) & 0x8000) as u16;
    let exp = ((bits >> 23) & 0xff) as i32;
    let man = bits & 0x007f_ffff;

    if exp == 0xff {
        // Inf / NaN.
        let nan_bit = if man != 0 { 0x0200 } else { 0 };
        return sign | 0x7c00 | nan_bit | ((man >> 13) as u16 & 0x03ff);
    }

    // Re-bias exponent: f32 bias 127 → f16 bias 15.
    let unbiased = exp - 127;
    if unbiased > 15 {
        return sign | 0x7c00; // overflow → ±inf
    }
    if unbiased >= -14 {
        // Normal range: round 23-bit mantissa to 10 bits, RNE.
        let mut m = man >> 13;
        let rem = man & 0x1fff;
        if rem > 0x1000 || (rem == 0x1000 && m & 1 == 1) {
            m += 1;
        }
        let mut e = (unbiased + 15) as u32;
        if m == 0x400 {
            m = 0;
            e += 1;
            if e >= 31 {
                return sign | 0x7c00;
            }
        }
        return sign | ((e as u16) << 10) | m as u16;
    }
    if unbiased >= -24 {
        // Subnormal f16.
        let shift = (-14 - unbiased) as u32; // 1..=10
        let full = man | 0x0080_0000; // implicit leading 1
        let m = full >> (13 + shift);
        let rem_bits = 13 + shift;
        let rem = full & ((1 << rem_bits) - 1);
        let half = 1u32 << (rem_bits - 1);
        let mut m = m;
        if rem > half || (rem == half && m & 1 == 1) {
            m += 1;
        }
        return sign | m as u16;
    }
    sign // underflow → ±0
}

/// IEEE 754 binary16 bits → f32.
pub fn f16_to_f32(h: u16) -> f32 {
    let sign = ((h & 0x8000) as u32) << 16;
    let exp = ((h >> 10) & 0x1f) as u32;
    let man = (h & 0x03ff) as u32;
    let bits = if exp == 0x1f {
        // Inf / NaN.
        sign | 0x7f80_0000 | (man << 13)
    } else if exp == 0 {
        if man == 0 {
            sign
        } else {
            // Subnormal: normalize.
            let mut e = -1i32;
            let mut m = man;
            while m & 0x400 == 0 {
                m <<= 1;
                e -= 1;
            }
            m &= 0x3ff;
            // After k = -1 - e shifts, the value is (1 + m/1024) · 2^(e - 13);
            // the f32 biased exponent is therefore 127 + e - 13 = 114 + e.
            sign | (((114 + e) as u32) << 23) | (m << 13)
        }
    } else {
        sign | ((exp + 112) << 23) | (man << 13)
    };
    f32::from_bits(bits)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn fp32_is_identity() {
        for x in [0.0, 1.5, -3.25, 1e-30, 1e30] {
            assert_eq!(Precision::Fp32.quantize(x), x);
        }
    }

    #[test]
    fn tf32_preserves_10_bit_values() {
        // 1 + 1/1024 is exactly representable with a 10-bit mantissa.
        let x = 1.0 + 1.0 / 1024.0;
        assert_eq!(Precision::Tf32.quantize(x), x);
        // 1 + 1/2048 is not; it rounds to even (1.0).
        let y = 1.0 + 1.0 / 2048.0;
        assert_eq!(Precision::Tf32.quantize(y), 1.0);
    }

    #[test]
    fn bf16_preserves_7_bit_values() {
        let x = 1.0 + 1.0 / 128.0;
        assert_eq!(Precision::Bf16.quantize(x), x);
        let y = 1.0 + 1.0 / 256.0 + 1.0 / 512.0;
        assert!((Precision::Bf16.quantize(y) - y).abs() > 0.0);
    }

    #[test]
    fn quantization_is_idempotent() {
        for p in [Precision::Tf32, Precision::Fp16, Precision::Bf16] {
            for i in 0..1000 {
                let x = (i as f32 - 500.0) * 0.017 + 0.3;
                let q = p.quantize(x);
                assert_eq!(p.quantize(q), q, "{p:?} not idempotent at {x}");
            }
        }
    }

    #[test]
    fn f16_known_values() {
        assert_eq!(f32_to_f16(0.0), 0x0000);
        assert_eq!(f32_to_f16(-0.0), 0x8000);
        assert_eq!(f32_to_f16(1.0), 0x3c00);
        assert_eq!(f32_to_f16(-2.0), 0xc000);
        assert_eq!(f32_to_f16(65504.0), 0x7bff); // f16 max
        assert_eq!(f32_to_f16(65536.0), 0x7c00); // overflow → inf
        assert_eq!(f16_to_f32(0x3c00), 1.0);
        assert_eq!(f16_to_f32(0x7c00), f32::INFINITY);
        assert!(f16_to_f32(0x7e00).is_nan());
    }

    #[test]
    fn f16_subnormals_round_trip() {
        // Smallest positive subnormal: 2^-24.
        let tiny = 2.0f32.powi(-24);
        assert_eq!(f16_to_f32(f32_to_f16(tiny)), tiny);
        // Largest subnormal.
        let sub = 2.0f32.powi(-14) - 2.0f32.powi(-24);
        assert_eq!(f16_to_f32(f32_to_f16(sub)), sub);
    }

    #[test]
    fn quantize_error_ordering() {
        // TF32 (10-bit mantissa) is at least as accurate as BF16 (7-bit) for
        // in-range values.
        let mut tf_err = 0.0f64;
        let mut bf_err = 0.0f64;
        for i in 1..10_000 {
            let x = i as f32 * 0.137;
            tf_err += ((Precision::Tf32.quantize(x) - x) as f64).abs();
            bf_err += ((Precision::Bf16.quantize(x) - x) as f64).abs();
        }
        assert!(tf_err < bf_err);
    }

    #[test]
    fn tile_shapes_match_paper() {
        assert_eq!(Precision::Tf32.tile_k(), 8);
        assert_eq!(Precision::Fp16.tile_k(), 16);
        assert_eq!(Precision::Bf16.tile_k(), 16);
    }

    /// The branchy round-to-nearest-even the branch-free form replaced,
    /// kept as its oracle.
    fn rne_oracle(x: f32, bits: u32) -> f32 {
        if !x.is_finite() {
            return x;
        }
        let drop = 23 - bits;
        let u = x.to_bits();
        let half = 1u32 << (drop - 1);
        let rem = u & ((1u32 << drop) - 1);
        let mut v = u >> drop;
        if rem > half || (rem == half && v & 1 == 1) {
            v += 1;
        }
        f32::from_bits(v << drop)
    }

    /// First input (as bits) and mantissa width where the branch-free RNE
    /// and the oracle disagree bit for bit.
    fn first_rne_mismatch(inputs: impl IntoIterator<Item = u32>) -> Option<(u32, u32)> {
        inputs.into_iter().find_map(|u| {
            let x = f32::from_bits(u);
            [10, 7]
                .into_iter()
                .find(|&b| truncate_mantissa_rne(x, b).to_bits() != rne_oracle(x, b).to_bits())
                .map(|b| (u, b))
        })
    }

    #[test]
    fn branch_free_rne_matches_oracle_on_edge_cases() {
        let mut inputs = vec![
            0x0000_0000, // +0
            0x8000_0000, // -0
            0x0000_0001, // smallest subnormal
            0x8000_0001,
            0x007f_ffff, // largest subnormal: carries into the smallest normal
            0x807f_ffff,
            0x3fff_ffff, // just below 2.0: carries into the next binade
            0xbfff_ffff,
            0x7f7f_ffff, // f32::MAX: rounds to +inf
            0xff7f_ffff,
            0x7f80_0000, // ±inf
            0xff80_0000,
            0x7fc0_0000, // NaN payloads, quiet and signalling, both signs
            0xffc0_0001,
            0x7f80_0001,
            0x7fbf_ffff,
            0xffff_ffff,
        ];
        for drop in [13u32, 16] {
            let half = 1u32 << (drop - 1);
            let odd = 1u32 << drop;
            for base in [0x3f80_0000u32, 0xc120_0000, 0x0000_0000] {
                inputs.push(base | half); // tie, even kept LSB: rounds down
                inputs.push(base | odd | half); // tie, odd kept LSB: rounds up
                inputs.push(base | (half - 1));
                inputs.push(base | (half + 1));
            }
        }
        assert_eq!(first_rne_mismatch(inputs), None);
        assert_eq!(first_rne_mismatch((0..=u32::MAX).step_by(65_537)), None);
        assert_eq!(Precision::Tf32.quantize(f32::MAX), f32::INFINITY);
        assert_eq!(Precision::Bf16.quantize(f32::MIN), f32::NEG_INFINITY);
    }

    #[test]
    #[ignore = "2^32 inputs; run in release: cargo test --release -p gpu-sim -- --ignored exhaustive"]
    fn exhaustive_rne_matches_oracle() {
        assert_eq!(first_rne_mismatch(0..=u32::MAX), None);
    }

    /// A finite, subnormal, infinite or NaN f32, each class often enough
    /// that a short vector holds several.
    fn special_f32() -> impl Strategy<Value = f32> {
        (0u32..8, 0u32..=u32::MAX).prop_map(|(class, bits)| match class {
            0 => f32::from_bits(bits & 0x807f_ffff), // ±0 or subnormal
            1 => f32::from_bits(bits | 0x7f80_0000), // NaN payload or ±inf
            2 => f32::INFINITY,
            3 => f32::NEG_INFINITY,
            4 => f32::from_bits(bits),
            _ => (bits as f64 / u32::MAX as f64 * 8.0 - 4.0) as f32,
        })
    }

    proptest! {
        #[test]
        fn axpy_matches_the_scalar_loop(
            (a, x, z0) in (0usize..98).prop_flat_map(|n| (
                special_f32(),
                prop::collection::vec(special_f32(), n),
                prop::collection::vec(-4.0f32..4.0, n),
            ))
        ) {
            for p in [Precision::Fp32, Precision::Tf32, Precision::Fp16, Precision::Bf16] {
                let mut got = z0.clone();
                p.axpy(&mut got, a, &x);
                let mut want = z0.clone();
                for (o, &xv) in want.iter_mut().zip(&x) {
                    *o += a * p.quantize(xv);
                }
                for (j, (g, w)) in got.iter().zip(&want).enumerate() {
                    prop_assert!(
                        g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()),
                        "{p:?} lane {j} of {}: axpy {g:e}, scalar loop {w:e}",
                        x.len()
                    );
                }
            }
        }
    }
}
