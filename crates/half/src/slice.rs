//! Bulk slice conversions and byte reinterpretation for [`F16`].
//!
//! Decoded samples travel through the pipeline as `Vec<F16>`; the storage
//! and simulated-device layers treat them as raw bytes. Because [`F16`] is
//! `repr(transparent)` over `u16`, the casts here are layout-safe.
//!
//! The bulk conversions dispatch through the runtime-selected SIMD tier
//! (see the private `simd` module); every vector path is bit-exact against the
//! scalar conversions, so results never depend on the host ISA.

use crate::F16;

/// Converts a slice of `f32` to a newly allocated `Vec<F16>` with
/// round-to-nearest-even.
pub fn narrow(values: &[f32]) -> Vec<F16> {
    let mut out = vec![F16::ZERO; values.len()];
    crate::simd::narrow_dispatch(values, &mut out);
    out
}

/// Widens a slice of `F16` to a newly allocated `Vec<f32>` (exact).
pub fn widen(values: &[F16]) -> Vec<f32> {
    let mut out = vec![0.0f32; values.len()];
    crate::simd::widen_dispatch(values, &mut out);
    out
}

/// Narrows `src` into the preallocated `dst`.
///
/// # Panics
/// Panics if the lengths differ.
pub fn narrow_into(src: &[f32], dst: &mut [F16]) {
    assert_eq!(src.len(), dst.len(), "narrow_into length mismatch");
    crate::simd::narrow_dispatch(src, dst);
}

/// Fused `(x - offset) * scale` followed by the narrowing conversion,
/// equivalent to `F16::from_f32((x - offset) * scale)` per element
/// (bit-exact at every SIMD tier — the vector sub/mul are the same IEEE
/// single-precision operations). This is the DeepCAM `Normalize` decode
/// finish.
///
/// # Panics
/// Panics if the lengths differ.
pub fn narrow_affine_into(src: &[f32], scale: f32, offset: f32, dst: &mut [F16]) {
    assert_eq!(src.len(), dst.len(), "narrow_affine_into length mismatch");
    crate::simd::narrow_affine_dispatch(src, scale, offset, dst);
}

/// Widens `src` into the preallocated `dst`.
///
/// # Panics
/// Panics if the lengths differ.
pub fn widen_into(src: &[F16], dst: &mut [f32]) {
    assert_eq!(src.len(), dst.len(), "widen_into length mismatch");
    crate::simd::widen_dispatch(src, dst);
}

/// Reinterprets a half slice as little-endian bytes (allocates; portable
/// across endianness because it serializes explicitly).
pub fn to_le_bytes(values: &[F16]) -> Vec<u8> {
    let mut out = Vec::with_capacity(values.len() * 2);
    for v in values {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

/// Parses little-endian bytes into halves.
///
/// Returns `None` if the byte length is odd.
pub fn from_le_bytes(bytes: &[u8]) -> Option<Vec<F16>> {
    if !bytes.len().is_multiple_of(2) {
        return None;
    }
    Some(
        bytes
            .chunks_exact(2)
            .map(|c| F16::from_le_bytes([c[0], c[1]]))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn narrow_widen_roundtrip() {
        let src = vec![0.0f32, 1.0, -2.5, 1000.0, 6.1e-5];
        let halves = narrow(&src);
        let back = widen(&halves);
        for (a, b) in src.iter().zip(&back) {
            assert!((a - b).abs() <= a.abs() * 0.001, "{a} vs {b}");
        }
    }

    #[test]
    fn into_variants_match_allocating() {
        let src = vec![0.5f32, 2.25, -8.0];
        let mut dst = vec![F16::ZERO; 3];
        narrow_into(&src, &mut dst);
        assert_eq!(dst, narrow(&src));
        let mut wide = vec![0.0f32; 3];
        widen_into(&dst, &mut wide);
        assert_eq!(wide, widen(&dst));
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn narrow_into_length_mismatch_panics() {
        let mut dst = vec![F16::ZERO; 2];
        narrow_into(&[1.0], &mut dst);
    }

    #[test]
    fn byte_roundtrip() {
        let halves = narrow(&[1.0, -0.5, 2.72]);
        let bytes = to_le_bytes(&halves);
        assert_eq!(bytes.len(), 6);
        assert_eq!(from_le_bytes(&bytes).unwrap(), halves);
        assert!(from_le_bytes(&bytes[..5]).is_none());
    }
}
