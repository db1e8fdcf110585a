//! Fusable preprocessing operators.
//!
//! The paper fuses preprocessing with decompression: CosmoFlow applies
//! `log` to particle counts, DeepCAM normalizes channels. The decisive
//! optimization (§V-B) is applying the operator to the *unique values*
//! in a sample's lookup table — thousands of applications instead of
//! millions — before the gather reconstructs the full tensor.
//!
//! Operators must therefore be pure per-value functions, and the layer
//! has two entry points over one definition of each:
//!
//! * [`Op::apply`] — one value. The fused CosmoFlow table build and the
//!   GPU simulator call it a few thousand times per sample.
//! * [`Op::narrow_into`] — a whole slice, in place, emitted as FP16.
//!   Every per-element caller (the baselines' per-voxel pass, the
//!   DeepCAM decoder's line finish, the calibration run) goes through
//!   it; it equals `F16::from_f32(op.apply(v))` element for element at
//!   every SIMD tier.
//!
//! The logarithm under both is [`log1p`], the repo's own: a libm call
//! is neither vectorisable nor the same function on every host, and the
//! fused decoder, the baseline and the simulator must agree bit for bit
//! wherever they run.
//!
//! [`OpCounter`] instruments how many times an operator ran, which the
//! Fig-5/§V-B benchmarks use to demonstrate the "three orders of
//! magnitude fewer op applications" property.

use sciml_half::slice::{narrow_affine_into, narrow_into};
use sciml_half::F16;
use sciml_simd::{arch_level, record, Kernel, SimdLevel};
use std::sync::atomic::{AtomicU64, Ordering};

/// ln 2 in two parts, the high one short enough that `k · LN2_HI` is
/// exact for every exponent `k`.
const LN2_HI: f32 = f32::from_bits(0x3f31_7180); // 6.9313812256e-1
const LN2_LO: f32 = f32::from_bits(0x3717_f7d1); // 9.0580006145e-6

/// Remez coefficients of `(log(1+s) − log(1−s)) / s − 2` in `s²` on
/// `[0, 0.1716]` (the FreeBSD/musl `log1pf` set, error < 2⁻³⁴·²⁴).
const LG: [f32; 4] = [
    f32::from_bits(0x3f2a_aaaa), // 0.66666662693
    f32::from_bits(0x3ecc_ce13), // 0.40000972152
    f32::from_bits(0x3e91_e9ee), // 0.28498786688
    f32::from_bits(0x3e78_9e26), // 0.24279078841
];

/// `ln(1 + x)` in portable straight-line IEEE single precision: no
/// branch on data, no FMA, no libm, so a loop over it vectorises and
/// every host and every SIMD tier computes the same bits.
///
/// The bits of `u = 1 + x` give `k` and a mantissa `1 + f` in
/// `[√2/2, √2)` with `1 + x ≈ 2ᵏ·(1 + f)`; `c / u` restores what
/// rounding `1 + x` lost; `log(1 + f)` is `f − f²/2 + s·(f²/2 + R(s²))`
/// with `s = f / (2 + f)` and `R` a degree-4 polynomial. The special
/// arguments are selected after the general path: `x < −1` and NaN give
/// NaN, `−1` gives `−∞`, `+∞` gives `+∞`, and `|x| < 2⁻²⁴` (zeros and
/// subnormals included) returns `x`.
///
/// Within 0.82 ulp of the exact value over every exponent (0.56 ulp on
/// the 65 536 particle counts, whose FP16 roundings all equal the
/// correctly rounded ones).
///
/// Never inlined: its per-value callers sit on the cold branch of a hot
/// loop (the fused decoder's table build calls it once per unique count
/// between tens of thousands of memo hits), where its forty
/// instructions inline cost that loop 5 % of `cosmo_plugin_shard`. The
/// bulk kernel inlines the body itself.
#[inline(never)]
pub fn log1p(x: f32) -> f32 {
    log1p_lane(x)
}

/// [`log1p`]'s body, for the loop that vectorises it.
#[inline(always)]
fn log1p_lane(x: f32) -> f32 {
    let u = 1.0 + x;
    // Shifting the bits by 1 − √2/2 moves the mantissa split from 1 to
    // √2/2, so `k` is the exponent of the nearest such power of two.
    let iu = u.to_bits().wrapping_add(0x3f80_0000 - 0x3f35_04f3);
    let k = (iu >> 23) as i32 - 0x7f;
    // log(1 + x) − log(u) ≈ (1 + x − u) / u, the low part computed from
    // whichever of 1 and x is the larger; negligible (and a subnormal
    // quotient) once u ≥ 2²⁵.
    let c = if k >= 2 { 1.0 - (u - x) } else { x - (u - 1.0) };
    let c = if k < 25 { c / u } else { 0.0 };
    let f = f32::from_bits((iu & 0x007f_ffff) + 0x3f35_04f3) - 1.0;
    let s = f / (2.0 + f);
    let z = s * s;
    let w = z * z;
    let t1 = w * (LG[1] + w * LG[3]);
    let t2 = z * (LG[0] + w * LG[2]);
    let r = t2 + t1;
    let hfsq = 0.5 * f * f;
    let dk = k as f32;
    let y = s * (hfsq + r) + (dk * LN2_LO + c) - hfsq + f + dk * LN2_HI;
    let y = if x.to_bits() & 0x7fff_ffff < 0x3380_0000 {
        x
    } else {
        y
    };
    let y = if x == f32::INFINITY { x } else { y };
    let y = if x == -1.0 { f32::NEG_INFINITY } else { y };
    let y = if x < -1.0 { f32::NAN } else { y };
    if x.is_nan() {
        x + x
    } else {
        y
    }
}

/// [`log1p`] over a slice, in place. This is the one loop every tier
/// runs: the `#[target_feature]` wrappers below only let the compiler
/// vectorise it with wider registers, so their results are the scalar
/// function's by construction.
#[inline(always)]
fn log1p_in_place(vals: &mut [f32]) {
    for v in vals.iter_mut() {
        *v = log1p_lane(*v);
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn log1p_in_place_avx2(vals: &mut [f32]) {
    log1p_in_place(vals);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse4.2")]
fn log1p_in_place_sse42(vals: &mut [f32]) {
    log1p_in_place(vals);
}

/// Values per in-place pass of [`Op::narrow_into`]'s logarithmic arms:
/// 16 KiB of f32, so the chunk the logarithm wrote is still in L1 when
/// the narrowing kernel reads it. Callers that widen into a scratch of
/// their own size it the same.
pub(crate) const CHUNK: usize = 4096;

/// `log1p` in place, then `finish` (a `sciml-half` narrowing kernel),
/// chunk by chunk at the active SIMD tier.
fn log1p_narrow(vals: &mut [f32], dst: &mut [F16], finish: impl Fn(&[f32], &mut [F16])) {
    let lvl = arch_level();
    record(Kernel::OpLog1p, lvl);
    for (v, d) in vals.chunks_mut(CHUNK).zip(dst.chunks_mut(CHUNK)) {
        match lvl {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `arch_level` returns Avx2 only when the probe (or
            // a clamped override) verified avx2 on this CPU.
            SimdLevel::Avx2 => unsafe { log1p_in_place_avx2(v) },
            #[cfg(target_arch = "x86_64")]
            // SAFETY: Sse42 from `arch_level` implies the probe
            // detected sse4.2 on this CPU.
            SimdLevel::Sse42 => unsafe { log1p_in_place_sse42(v) },
            // NEON is baseline on aarch64, so the plain loop is
            // already that tier's.
            _ => log1p_in_place(v),
        }
        finish(v, d);
    }
}

/// A pure per-value preprocessing operator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Op {
    /// Pass-through.
    Identity,
    /// `ln(1 + x)` — the CosmoFlow particle-count transform.
    Log1p,
    /// Affine normalization `(x - offset) * scale` — the DeepCAM
    /// per-channel standardization ((x - mean) / std with
    /// `scale = 1/std`, `offset = mean`).
    Normalize {
        /// Multiplied after the shift (1/σ).
        scale: f32,
        /// Subtracted first (μ).
        offset: f32,
    },
    /// `ln(1 + x)` followed by affine normalization (CosmoFlow's full
    /// pipeline when feature scaling is enabled).
    Log1pNormalize {
        /// Multiplied after the shift.
        scale: f32,
        /// Subtracted after the log.
        offset: f32,
    },
}

impl Op {
    /// Applies the operator to one value.
    #[inline]
    pub fn apply(self, x: f32) -> f32 {
        match self {
            Op::Identity => x,
            Op::Log1p => log1p(x),
            Op::Normalize { scale, offset } => (x - offset) * scale,
            Op::Log1pNormalize { scale, offset } => (log1p(x) - offset) * scale,
        }
    }

    /// Applies the operator to every value of `vals` and narrows the
    /// results into `dst`: `dst[i] = F16::from_f32(self.apply(vals[i]))`
    /// bit for bit at every SIMD tier, through the bulk kernels. `vals`
    /// is scratch — the logarithmic operators overwrite it.
    ///
    /// # Panics
    /// Panics if the lengths differ.
    pub fn narrow_into(self, vals: &mut [f32], dst: &mut [F16]) {
        assert_eq!(vals.len(), dst.len(), "Op::narrow_into length mismatch");
        match self {
            Op::Identity => narrow_into(vals, dst),
            Op::Normalize { scale, offset } => narrow_affine_into(vals, scale, offset, dst),
            Op::Log1p => log1p_narrow(vals, dst, narrow_into),
            Op::Log1pNormalize { scale, offset } => {
                log1p_narrow(vals, dst, |v, d| narrow_affine_into(v, scale, offset, d))
            }
        }
    }
}

/// Counts operator applications; used to verify the unique-value fusion
/// actually reduces work.
#[derive(Debug, Default)]
pub struct OpCounter {
    count: AtomicU64,
}

impl OpCounter {
    /// Fresh counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Applies `op`, counting the invocation.
    #[inline]
    pub fn apply(&self, op: Op, x: f32) -> f32 {
        self.count.fetch_add(1, Ordering::Relaxed);
        op.apply(x)
    }

    /// Counts `n` applications made through a bulk kernel.
    pub fn add(&self, n: u64) {
        self.count.fetch_add(n, Ordering::Relaxed);
    }

    /// Number of applications so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity() {
        assert_eq!(Op::Identity.apply(3.25), 3.25);
    }

    /// `|y − exact|` in units of the last place of the f32 nearest to
    /// `exact`.
    fn ulps(y: f32, exact: f64) -> f64 {
        let near = (exact as f32).abs();
        let ulp = f32::from_bits(near.to_bits() + 1) as f64 - near as f64;
        (y as f64 - exact).abs() / ulp
    }

    #[test]
    fn log1p_stays_within_one_ulp_of_the_f64_reference() {
        // Every 256th bit pattern with a finite logarithm: 2²⁴ points
        // less the excluded ranges, through every exponent and both
        // reductions. Measured 0.814 (glibc's own: 0.800).
        let mut worst = (0f64, 0f32);
        for bits in (0..=u32::MAX).step_by(256) {
            let x = f32::from_bits(bits);
            if x > -1.0 && x.is_finite() && x != 0.0 {
                let e = ulps(log1p(x), (x as f64).ln_1p());
                if e > worst.0 {
                    worst = (e, x);
                }
            }
        }
        assert!(worst.0 < 0.9, "{} ulp at {:e}", worst.0, worst.1);
        assert_eq!(Op::Log1p.apply(0.0), 0.0);
    }

    #[test]
    fn log1p_of_every_count_rounds_to_the_reference_f16() {
        // The CosmoFlow domain in full: the f32 is within 0.75 ulp
        // (measured 0.556) and the emitted FP16 is the one the exact
        // logarithm rounds to, so no host's libm ever produced a
        // different tensor.
        for c in 0..=u16::MAX {
            let exact = (c as f64).ln_1p();
            let y = log1p(c as f32);
            assert!(ulps(y, exact) < 0.75 || c == 0, "count {c}: {y}");
            assert_eq!(F16::from_f32(y), F16::from_f32(exact as f32), "count {c}");
        }
    }

    #[test]
    fn log1p_specials_are_libms() {
        // At each of these libm's result is also the exact one (or its
        // correct rounding), so this holds against any sound libm, not
        // only the host's.
        let root_half = 0xbe95_f619u32; // √2/2 − 1, where k goes −1 → 0
        let root_two = 0x3ed4_13d0u32; // √2 − 1, where k goes 0 → 1
        let tiny = 0x3380_0000u32; // 2⁻²⁴
        let mut specials = vec![
            0.0f32,
            -0.0,
            -1.0,
            -1.5,
            f32::MIN,
            f32::NEG_INFINITY,
            f32::INFINITY,
            f32::NAN,
            -f32::NAN,
            f32::from_bits(0x7fa0_0000), // signalling
            f32::from_bits(0xffa0_0001),
            f32::MAX,
            f32::MIN_POSITIVE,
            -f32::MIN_POSITIVE,
            f32::from_bits(1),
            f32::from_bits(0x8000_0001),
            f32::from_bits(0x007f_ffff),
            f32::from_bits(0xbf7f_ffff), // just above −1
            1.0,
            65535.0,
        ];
        for edge in [root_half, root_two, tiny, tiny | 0x8000_0000] {
            specials.extend((edge - 2..=edge + 2).map(f32::from_bits));
        }
        for x in specials {
            let (ours, libm) = (log1p(x), x.ln_1p());
            if libm.is_nan() {
                assert!(ours.is_nan(), "log1p({x:e}) = {ours:e}, want NaN");
            } else {
                assert_eq!(ours.to_bits(), libm.to_bits(), "log1p({x:e})");
            }
        }
    }

    #[test]
    fn normalize_is_affine_shift_then_scale() {
        let op = Op::Normalize {
            scale: 0.5,
            offset: 2.0,
        };
        assert_eq!(op.apply(4.0), 1.0);
        assert_eq!(op.apply(2.0), 0.0);
    }

    #[test]
    fn composed_log_normalize() {
        let op = Op::Log1pNormalize {
            scale: 2.0,
            offset: 1.0,
        };
        let x = 9.0f32;
        assert_eq!(op.apply(x), (log1p(x) - 1.0) * 2.0);
    }

    #[test]
    fn counter_counts() {
        let c = OpCounter::new();
        for i in 0..10 {
            c.apply(Op::Log1p, i as f32);
        }
        assert_eq!(c.count(), 10);
    }
}
