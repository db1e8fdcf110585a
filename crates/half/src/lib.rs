//! Software IEEE 754 binary16 ("half precision", FP16) support.
//!
//! The paper's decoders perform arithmetic in FP32 and *emit* FP16 samples
//! ("we emit half-precision (FP16) values, the computation is conducted in
//! single-precision"), feeding the frameworks' mixed-precision engines.
//! None of the pre-approved crates provide a half type, so this crate
//! implements one from scratch with:
//!
//! * correctly rounded (round-to-nearest-even) `f32 -> f16` conversion,
//!   including subnormal generation and overflow to infinity;
//! * exact `f16 -> f32` widening;
//! * the small arithmetic surface the decoders need (add/sub/mul/div are
//!   performed by widening to `f32`, operating, and re-rounding — the same
//!   "software emulated addition" scheme described in §V-A of the paper);
//! * ULP / relative-error utilities used by the codec error statistics.
//!
//! The type is a plain `u16` newtype (`repr(transparent)`) so slices of
//! [`F16`] can be shipped across the simulated host/device boundary as raw
//! bytes with no copying.

mod convert;
mod ops;
mod simd;
pub mod slice;

pub use convert::{f16_bits_from_f32, f32_from_f16_bits};

use std::cmp::Ordering;
use std::fmt;

/// An IEEE 754 binary16 floating-point number.
///
/// Layout: 1 sign bit, 5 exponent bits (bias 15), 10 mantissa bits.
#[derive(Clone, Copy, Default, PartialEq, Eq, Hash)]
#[repr(transparent)]
pub struct F16(pub u16);

impl F16 {
    /// Positive zero.
    pub const ZERO: F16 = F16(0x0000);
    /// One.
    pub const ONE: F16 = F16(0x3C00);
    /// Positive infinity.
    pub const INFINITY: F16 = F16(0x7C00);
    /// A canonical quiet NaN.
    pub const NAN: F16 = F16(0x7E00);
    /// Largest finite value, 65504.
    pub const MAX: F16 = F16(0x7BFF);

    /// Converts an `f32` with round-to-nearest-even.
    #[inline]
    pub fn from_f32(v: f32) -> F16 {
        F16(f16_bits_from_f32(v))
    }

    /// Widens to `f32`; this conversion is exact for every `F16` value.
    #[inline]
    pub fn to_f32(self) -> f32 {
        f32_from_f16_bits(self.0)
    }

    /// Raw bit pattern.
    #[inline]
    pub fn to_bits(self) -> u16 {
        self.0
    }

    /// Constructs from a raw bit pattern.
    #[inline]
    pub fn from_bits(bits: u16) -> F16 {
        F16(bits)
    }

    /// Little-endian wire encoding.
    #[inline]
    pub fn to_le_bytes(self) -> [u8; 2] {
        self.0.to_le_bytes()
    }

    /// Decodes the little-endian wire encoding.
    #[inline]
    pub fn from_le_bytes(b: [u8; 2]) -> F16 {
        F16(u16::from_le_bytes(b))
    }

    /// True for either signed zero.
    #[inline]
    pub fn is_zero(self) -> bool {
        self.0 & 0x7FFF == 0
    }

    /// True if the value is NaN.
    #[inline]
    pub fn is_nan(self) -> bool {
        (self.0 & 0x7C00) == 0x7C00 && (self.0 & 0x03FF) != 0
    }

    /// True if the value is neither infinite nor NaN.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.0 & 0x7C00 != 0x7C00
    }

    /// Absolute value (clears the sign bit).
    #[inline]
    pub fn abs(self) -> F16 {
        F16(self.0 & 0x7FFF)
    }
}

/// Relative error |approx - exact| / |exact| with the zero-reference
/// convention used by the codec error statistics.
#[inline]
pub fn relative_error(approx: f32, exact: f32) -> f32 {
    if exact == 0.0 {
        if approx == 0.0 {
            0.0
        } else {
            f32::INFINITY
        }
    } else {
        ((approx - exact) / exact).abs()
    }
}

impl PartialOrd for F16 {
    fn partial_cmp(&self, other: &F16) -> Option<Ordering> {
        self.to_f32().partial_cmp(&other.to_f32())
    }
}

impl fmt::Debug for F16 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "F16({})", self.to_f32())
    }
}

impl fmt::Display for F16 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_f32())
    }
}

impl From<f32> for F16 {
    #[inline]
    fn from(v: f32) -> F16 {
        F16::from_f32(v)
    }
}

impl From<F16> for f32 {
    #[inline]
    fn from(v: F16) -> f32 {
        v.to_f32()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_roundtrip() {
        assert_eq!(F16::ZERO.to_f32(), 0.0);
        assert_eq!(F16::ONE.to_f32(), 1.0);
        assert_eq!(F16::MAX.to_f32(), 65504.0);
        assert!(F16::NAN.is_nan());
        assert_eq!(F16::INFINITY.to_f32(), f32::INFINITY);
    }

    #[test]
    fn classification() {
        assert!(F16::ZERO.is_zero());
        assert!(F16::from_f32(-0.0).is_zero());
        assert!(F16::ONE.is_finite());
        assert!(!F16::INFINITY.is_finite());
        assert!(!F16::NAN.is_finite());
    }

    #[test]
    fn abs_clears_sign() {
        assert_eq!(F16::from_f32(-2.5).abs().to_f32(), 2.5);
        assert_eq!(F16::from_f32(-0.0).abs(), F16::ZERO);
    }

    #[test]
    fn relative_error_conventions() {
        assert_eq!(relative_error(0.0, 0.0), 0.0);
        assert_eq!(relative_error(1.0, 0.0), f32::INFINITY);
        assert!((relative_error(1.1, 1.0) - 0.1).abs() < 1e-6);
        assert!((relative_error(0.9, 1.0) - 0.1).abs() < 1e-6);
    }

    #[test]
    fn wire_encoding() {
        let v = F16::from_f32(std::f32::consts::PI);
        assert_eq!(F16::from_le_bytes(v.to_le_bytes()), v);
    }

    #[test]
    fn ordering_matches_f32() {
        let vals = [-2.0f32, -0.5, 0.0, 0.25, 1.0, 1000.0];
        for &a in &vals {
            for &b in &vals {
                assert_eq!(
                    F16::from_f32(a).partial_cmp(&F16::from_f32(b)),
                    a.partial_cmp(&b)
                );
            }
        }
    }
}
