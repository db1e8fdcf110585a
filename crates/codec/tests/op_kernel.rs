//! `Op::narrow_into` — the bulk form of the per-element operator — is
//! `F16::from_f32(op.apply(v))` element for element at every SIMD tier,
//! and is fast because its one safe `log1p` loop vectorises. The first
//! holds by construction (the tiers are one source compiled three
//! times) and is proven here anyway; the second rests on the optimiser,
//! so its loss must fail a build rather than show up as a benchmark
//! regression someone has to explain: it is a row of the crate's speed
//! floors (`src/tests/speed.rs`).

use proptest::prelude::*;
use sciml_codec::ops::log1p;
use sciml_codec::Op;
use sciml_half::F16;
use sciml_simd::{force, supported_levels, SimdLevel};

/// Bit equality, except that any NaN equals any NaN.
fn same(a: F16, b: F16) -> bool {
    a == b || (a.is_nan() && b.is_nan())
}

/// `op.narrow_into` over `src` at the forced `lvl` against the
/// per-element definition, on a dirty destination.
fn assert_bulk_is_per_element(op: Op, src: &[f32], lvl: SimdLevel) {
    let _g = force(Some(lvl));
    let mut vals = src.to_vec();
    let mut got = vec![F16::ONE; src.len()];
    op.narrow_into(&mut vals, &mut got);
    for (i, (&g, &x)) in got.iter().zip(src).enumerate() {
        let want = F16::from_f32(op.apply(x));
        assert!(
            same(g, want),
            "{op:?} at {lvl:?}, element {i} of {}: {x:e} -> {g:?}, want {want:?}",
            src.len()
        );
    }
}

/// Counts, fractions, negatives and every special argument of the
/// logarithm, cycled to `n` values.
fn mixed_values(n: usize) -> Vec<f32> {
    let specials = [
        0.0f32,
        -0.0,
        -1.0,
        -1.5,
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::NAN,
        f32::from_bits(0x7fa0_0000),
        f32::MAX,
        f32::MIN_POSITIVE,
        f32::from_bits(1),
        5.9e-8,
        0.414_213_57,
        -0.292_893_2,
        65535.0,
    ];
    (0..n)
        .map(|i| match i % 4 {
            0 => specials[(i / 4) % specials.len()],
            1 => (i * 7919 % 65536) as f32,
            2 => i as f32 * 0.37 - 90.0,
            _ => f32::from_bits((i as u32).wrapping_mul(0x9E37_79B9)),
        })
        .collect()
}

const OPS: [Op; 4] = [
    Op::Identity,
    Op::Log1p,
    Op::Normalize {
        scale: 0.05,
        offset: 270.0,
    },
    Op::Log1pNormalize {
        scale: 1.7,
        offset: 2.5,
    },
];

#[test]
fn every_operator_at_every_tier_and_length_is_the_per_element_one() {
    // Lengths around the vector widths, the in-place chunk (4096) and a
    // ragged tail.
    for n in [0, 1, 3, 4, 5, 7, 8, 9, 31, 4095, 4096, 4097, 10_007] {
        let src = mixed_values(n);
        for lvl in supported_levels() {
            for op in OPS {
                assert_bulk_is_per_element(op, &src, lvl);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary bit patterns, arbitrary affine parameters.
    #[test]
    fn bulk_is_per_element_on_arbitrary_bits(
        bits in prop::collection::vec(any::<u32>(), 0..300),
        scale in -4f32..4.0,
        offset in -100f32..100.0,
    ) {
        let src: Vec<f32> = bits.into_iter().map(f32::from_bits).collect();
        for lvl in supported_levels() {
            for op in [
                Op::Identity,
                Op::Log1p,
                Op::Normalize { scale, offset },
                Op::Log1pNormalize { scale, offset },
            ] {
                assert_bulk_is_per_element(op, &src, lvl);
            }
        }
    }
}

/// All 2³² arguments through `Op::Log1p.narrow_into` at every tier
/// against `F16::from_f32(log1p(x))`. Two threads own half of each
/// block each — they compute their reference once and hold every tier
/// against it; the forced tier is process-global, so they share it.
/// Slice lengths cycle through 0, 1, the vector widths ± 1 and ragged
/// tails, so every tail path sees every kind of argument.
#[test]
#[ignore = "2^32 arguments x every tier (~55 s on two cores): release mode, run by scripts/ci.sh"]
fn all_f32_bit_patterns_at_every_tier() {
    const HALF: usize = 1 << 21;
    const LENS: [usize; 12] = [0, 1, 3, 4, 5, 7, 8, 9, 4097, 65_521, 12_289, 4095];
    struct Half {
        src: Vec<f32>,
        want: Vec<F16>,
        vals: Vec<f32>,
        got: Vec<F16>,
    }
    let levels = supported_levels();
    let mut halves: Vec<Half> = (0..2)
        .map(|_| Half {
            src: vec![0.0; HALF],
            want: vec![F16::ZERO; HALF],
            vals: vec![0.0; HALF],
            got: vec![F16::ZERO; HALF],
        })
        .collect();
    let per_block = 2 * HALF as u64;
    for block in 0..(1u64 << 32) / per_block {
        std::thread::scope(|t| {
            for (h, half) in halves.iter_mut().enumerate() {
                let base = block * per_block + h as u64 * HALF as u64;
                t.spawn(move || {
                    for (i, (s, w)) in half.src.iter_mut().zip(&mut half.want).enumerate() {
                        *s = f32::from_bits((base + i as u64) as u32);
                        *w = F16::from_f32(log1p(*s));
                    }
                });
            }
        });
        for &lvl in &levels {
            let _g = force(Some(lvl));
            std::thread::scope(|t| {
                for (h, half) in halves.iter_mut().enumerate() {
                    let mut which = block as usize + lvl.index() + h * 5;
                    t.spawn(move || {
                        half.vals.copy_from_slice(&half.src);
                        half.got.fill(F16::ONE);
                        let (mut v, mut g) = (&mut half.vals[..], &mut half.got[..]);
                        while !v.is_empty() {
                            let n = LENS[which % LENS.len()].min(v.len());
                            which += 1;
                            let (v_now, v_rest) = v.split_at_mut(n);
                            let (g_now, g_rest) = g.split_at_mut(n);
                            Op::Log1p.narrow_into(v_now, g_now);
                            (v, g) = (v_rest, g_rest);
                        }
                        for ((&g, &w), &x) in half.got.iter().zip(&half.want).zip(&half.src) {
                            assert!(
                                same(g, w),
                                "{lvl:?}: bits {:#010x} -> {g:?}, want {w:?}",
                                x.to_bits()
                            );
                        }
                    });
                }
            });
        }
    }
}
