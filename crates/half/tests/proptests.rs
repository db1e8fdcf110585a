//! Property tests for the binary16 implementation.

use proptest::prelude::*;
use sciml_half::slice::{narrow, narrow_affine_into, widen};
use sciml_half::{f16_bits_from_f32, f32_from_f16_bits, relative_error, F16};
use sciml_simd::{force, supported_levels};

/// Hand-picked conversion edges: the f16 subnormal boundary, the
/// overflow boundary, round-to-nearest-even tie points, and NaN
/// payload patterns. Every SIMD tier must narrow these exactly like
/// the scalar reference.
fn edge_vector() -> Vec<f32> {
    let mut v = vec![
        0.0,
        -0.0,
        1.0,
        -1.0,
        // Overflow boundary: 65504 is the max half; 65520 is the first
        // f32 that rounds (RTNE) to infinity; 65519.996 still rounds in.
        65504.0,
        65519.0,
        f32::from_bits(0x477F_EFFF), // just below 65519.996…
        65520.0,
        65536.0,
        -65520.0,
        1e30,
        -1e30,
        f32::INFINITY,
        f32::NEG_INFINITY,
        // Subnormal half range and its boundaries.
        6.103_515_6e-5,              // 2^-14: smallest normal half
        6.097_6e-5,                  // just below: subnormal result
        5.960_464_5e-8,              // 2^-24: smallest subnormal half
        2.980_232_2e-8,              // 2^-25: ties to even -> 0
        f32::from_bits(0x3300_0001), // 2^-25 + ulp: rounds up
        8.940_697e-8,                // 3 * 2^-25: ties to even -> 2^-23
        f32::MIN_POSITIVE,           // f32 normal, far below half subnormals
        f32::MIN_POSITIVE / 2.0,     // f32 subnormal -> signed zero
        -f32::MIN_POSITIVE / 2.0,
        // Ties-to-even inside the normal range: exactly halfway between
        // consecutive halves (1.0 + k * 2^-11).
        1.0 + 0.000_488_281_25,
        1.0 + 3.0 * 0.000_488_281_25,
        2048.5, // halfway between 2048 and 2049… -> even
        2049.5,
    ];
    // NaN payload patterns: quiet, signaling-looking, negative, all-ones.
    for bits in [
        0x7FC0_0000u32,
        0x7F80_0001,
        0xFFC0_1234,
        0x7FA0_0000,
        0xFFFF_FFFF,
    ] {
        v.push(f32::from_bits(bits));
    }
    v
}

/// Narrow the edge vector at every supported tier and require bit
/// equality with the scalar reference, tails included (odd length).
#[test]
fn edge_vector_narrows_identically_at_every_tier() {
    let mut vals = edge_vector();
    vals.push(0.5); // odd length -> exercises the scalar tail
    let want: Vec<u16> = vals.iter().map(|&v| f16_bits_from_f32(v)).collect();
    for lvl in supported_levels() {
        let _g = force(Some(lvl));
        let got: Vec<u16> = narrow(&vals).iter().map(|h| h.to_bits()).collect();
        assert_eq!(got, want, "tier {lvl:?}");
    }
}

proptest! {
    /// Widening then narrowing any half bit pattern is the identity
    /// (modulo NaN payload quieting).
    #[test]
    fn widen_narrow_identity(bits in any::<u16>()) {
        let f = f32_from_f16_bits(bits);
        if f.is_nan() {
            prop_assert!(f32_from_f16_bits(f16_bits_from_f32(f)).is_nan());
        } else {
            prop_assert_eq!(f16_bits_from_f32(f), bits);
        }
    }

    /// Narrowing is monotone: a <= b implies narrow(a) <= narrow(b).
    #[test]
    fn narrowing_is_monotone(a in -1e5f32..1e5, b in -1e5f32..1e5) {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        let l = F16::from_f32(lo).to_f32();
        let h = F16::from_f32(hi).to_f32();
        prop_assert!(l <= h, "{lo} -> {l}, {hi} -> {h}");
    }

    /// Conversion error is within half a ULP for the normal range
    /// (relative error bounded by 2^-11).
    #[test]
    fn conversion_error_bound(mag in 6.2e-5f32..65504.0, negate in any::<bool>()) {
        let v = if negate { -mag } else { mag };
        let h = F16::from_f32(v);
        prop_assert!(relative_error(h.to_f32(), v) <= 2f32.powi(-11) * 1.0001,
            "{v} -> {h:?}");
    }

    /// Narrowing never produces NaN from a finite input.
    #[test]
    fn finite_in_never_nan_out(v in any::<f32>()) {
        prop_assume!(v.is_finite());
        prop_assert!(!F16::from_f32(v).is_nan());
    }

    /// Sign is always preserved exactly.
    #[test]
    fn sign_preserved(v in any::<f32>()) {
        prop_assume!(!v.is_nan());
        prop_assert_eq!(F16::from_f32(v).to_bits() & 0x8000 != 0, v.is_sign_negative());
    }

    /// Widened addition then rounding equals F16 Add operator.
    #[test]
    fn add_matches_widen_scheme(a in -1e3f32..1e3, b in -1e3f32..1e3) {
        let ha = F16::from_f32(a);
        let hb = F16::from_f32(b);
        let expect = F16::from_f32(ha.to_f32() + hb.to_f32());
        prop_assert_eq!(ha + hb, expect);
    }

    /// Byte serialization round-trips arbitrary half vectors.
    #[test]
    fn slice_byte_roundtrip(vals in prop::collection::vec(any::<u16>(), 0..256)) {
        let halves: Vec<F16> = vals.iter().map(|&b| F16::from_bits(b)).collect();
        let bytes = sciml_half::slice::to_le_bytes(&halves);
        prop_assert_eq!(sciml_half::slice::from_le_bytes(&bytes).unwrap(), halves);
    }

    /// Bulk narrowing is bit-identical to the scalar reference at every
    /// SIMD tier, over arbitrary f32 bit patterns (NaN payloads,
    /// subnormals, infinities) and lengths that leave vector tails.
    #[test]
    fn narrow_matches_scalar_at_every_tier(
        bits in prop::collection::vec(any::<u32>(), 0..67),
    ) {
        let vals: Vec<f32> = bits.iter().map(|&b| f32::from_bits(b)).collect();
        let want: Vec<u16> = vals.iter().map(|&v| f16_bits_from_f32(v)).collect();
        for lvl in supported_levels() {
            let _g = force(Some(lvl));
            let got: Vec<u16> = narrow(&vals).iter().map(|h| h.to_bits()).collect();
            prop_assert_eq!(&got, &want, "tier {:?}", lvl);
        }
    }

    /// Bulk widening is bit-identical to the scalar reference at every
    /// SIMD tier for arbitrary half patterns, NaN payloads included.
    #[test]
    fn widen_matches_scalar_at_every_tier(
        bits in prop::collection::vec(any::<u16>(), 0..67),
    ) {
        let halves: Vec<F16> = bits.iter().map(|&b| F16::from_bits(b)).collect();
        let want: Vec<u32> = bits.iter().map(|&b| f32_from_f16_bits(b).to_bits()).collect();
        for lvl in supported_levels() {
            let _g = force(Some(lvl));
            let got: Vec<u32> = widen(&halves).iter().map(|v| v.to_bits()).collect();
            prop_assert_eq!(&got, &want, "tier {:?}", lvl);
        }
    }

    /// The fused affine narrow equals the per-element scalar expression
    /// `F16::from_f32((x - offset) * scale)` bit for bit at every tier.
    #[test]
    fn affine_narrow_matches_scalar_at_every_tier(
        bits in prop::collection::vec(any::<u32>(), 0..67),
        scale in -16f32..16.0,
        offset in -1000f32..1000.0,
    ) {
        let vals: Vec<f32> = bits.iter().map(|&b| f32::from_bits(b)).collect();
        let want: Vec<u16> = vals
            .iter()
            .map(|&v| f16_bits_from_f32((v - offset) * scale))
            .collect();
        for lvl in supported_levels() {
            let _g = force(Some(lvl));
            let mut dst = vec![F16::ZERO; vals.len()];
            narrow_affine_into(&vals, scale, offset, &mut dst);
            let got: Vec<u16> = dst.iter().map(|h| h.to_bits()).collect();
            prop_assert_eq!(&got, &want, "tier {:?}", lvl);
        }
    }
}
