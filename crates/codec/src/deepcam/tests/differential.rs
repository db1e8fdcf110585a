//! The allocation-free encoder against [`super::reference`], the
//! encoder it replaced, under the rule the rewrite was made under: a
//! speed change may not change a byte. Blobs and [`EncodeStats`] must
//! match on generated samples and on hand-built lines that reach every
//! branch; the integer quantiser must match the float one on every
//! mantissa.

use super::encode::{code_delta, quantize_code};
use super::{decode_code, encode, exp2i, reference, EncoderConfig, CODE_ESCAPE, CODE_ZERO};
use sciml_data::deepcam::{ClimateGenerator, DeepCamConfig, DeepCamSample};

fn one_channel(lines: &[Vec<f32>]) -> DeepCamSample {
    let width = lines[0].len();
    DeepCamSample {
        width,
        height: lines.len(),
        channels: 1,
        data: lines.concat(),
        mask: vec![7; width * lines.len()],
    }
}

/// Blob and statistics of both encoders, which must agree.
#[track_caller]
fn assert_same(sample: &DeepCamSample, cfg: &EncoderConfig, what: &str) {
    let (want, want_stats) = reference::encode(sample, cfg);
    let (got, got_stats) = encode(sample, cfg);
    assert_eq!(got_stats, want_stats, "{what}: stats");
    assert!(got.to_bytes() == want.to_bytes(), "{what}: blob differs");
}

fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 11
}

#[test]
fn generated_samples_encode_to_the_reference_bytes() {
    for width in [1usize, 7, 8, 9, 288, 1152] {
        for seed in 0..32u64 {
            let generator = ClimateGenerator::new(DeepCamConfig {
                width,
                height: 6,
                channels: 3,
                seed: 0xDCA0 + seed,
                ..DeepCamConfig::test_small()
            });
            let sample = generator.generate(seed);
            assert_same(
                &sample,
                &EncoderConfig::default(),
                &format!("width {width} seed {seed}"),
            );
        }
    }
    // The paper's operating point is the default; a tight and a loose
    // configuration move where lines escape and where they go raw.
    let sample = ClimateGenerator::new(DeepCamConfig::test_small()).generate(5);
    for (tol, floor, per_segment) in [(0.0, 1e-6, 8), (0.002, 0.01, 2), (0.5, 10.0, 64)] {
        let cfg = EncoderConfig {
            escape_rel_tol: tol,
            abs_floor: floor,
            min_values_per_segment: per_segment,
        };
        assert_same(&sample, &cfg, &format!("cfg {cfg:?}"));
    }
}

#[test]
fn hand_built_lines_encode_to_the_reference_bytes() {
    let n = 96usize;
    let ramp = |f: &dyn Fn(usize) -> f32| (0..n).map(f).collect::<Vec<f32>>();
    let mut state = 0x5EED_u64;
    let random: Vec<u64> = (0..2 * n).map(|_| lcg(&mut state)).collect();
    let lines: Vec<(&str, Vec<f32>)> = vec![
        ("constant", vec![3.5; n]),
        ("constant nan", vec![f32::NAN; n]),
        (
            "distinct nans",
            ramp(&|i| f32::from_bits(0x7FC0_0000 | i as u32)),
        ),
        (
            "negative zero among zeros",
            ramp(&|i| if i == 40 { -0.0 } else { 0.0 }),
        ),
        ("smooth", ramp(&|i| 100.0 + (i as f32 * 0.05).sin())),
        (
            "+inf mid-line",
            ramp(&|i| if i == 50 { f32::INFINITY } else { i as f32 }),
        ),
        (
            "-inf mid-line",
            ramp(&|i| if i == 50 { f32::NEG_INFINITY } else { i as f32 }),
        ),
        (
            "nan head",
            ramp(&|i| if i == 0 { f32::NAN } else { i as f32 * 0.5 }),
        ),
        (
            "inf head",
            ramp(&|i| {
                if i == 0 {
                    f32::INFINITY
                } else {
                    1.0 + i as f32
                }
            }),
        ),
        // Deltas below 2^-126: the subnormal branch of the quantiser at
        // the one base exponent where it is in range.
        (
            "subnormal deltas",
            ramp(&|i| f32::from_bits(i as u32 * 0x1_2345)),
        ),
        (
            "subnormal steps on a normal value",
            ramp(&|i| f32::from_bits(0x0080_0000 + i as u32 * 3)),
        ),
        (
            "subnormal and normal deltas mixed",
            ramp(&|i| f32::from_bits((i as u32 % 5) * 0x0033_3333)),
        ),
        // Delta exponents 8 and -1 alternate: the window breaks every
        // other value and the line goes raw.
        (
            "exponent swings",
            ramp(&|i| match i % 4 {
                0 | 2 => 0.0,
                1 => 256.0,
                _ => 0.5,
            }),
        ),
        // A difference of two finite values that overflows.
        (
            "overflowing delta",
            ramp(&|i| if i % 2 == 0 { 3e38 } else { -3e38 }),
        ),
        (
            "near f32::MAX",
            ramp(&|i| f32::MAX * (0.5 + i as f32 / 256.0)),
        ),
        (
            "huge and tiny",
            ramp(&|i| if i % 9 == 0 { 1e30 } else { 1e-30 * i as f32 }),
        ),
        ("random bits", ramp(&|i| f32::from_bits(random[i] as u32))),
        (
            "random walk",
            ramp(&|i| (random[n + i] % 2000) as f32 * 0.01 - 10.0),
        ),
        ("sawtooth", ramp(&|i| (i % 8) as f32 * 1000.0)),
        ("sign flips", ramp(&|i| if i % 2 == 0 { 1.0 } else { -1.0 })),
        (
            "mantissa carries",
            ramp(&|i| 1.0 + i as f32 * (1.0 - 1.0 / 64.0)),
        ),
    ];
    let cfgs = [
        EncoderConfig::default(),
        EncoderConfig {
            escape_rel_tol: 0.0,
            abs_floor: 1e-30,
            min_values_per_segment: 2,
        },
    ];
    for cfg in &cfgs {
        for (name, line) in &lines {
            assert_same(&one_channel(std::slice::from_ref(line)), cfg, name);
        }
        // All of them as the lines of one sample: the scratch carries
        // nothing over from one line to the next.
        let all: Vec<Vec<f32>> = lines.iter().map(|(_, l)| l.clone()).collect();
        assert_same(&one_channel(&all), cfg, "every line in one sample");
    }
}

/// A line on which seven values in ten escape: with no tolerance, a
/// delta of ±33 · 2^-15 (mantissa 1 + 1/32, half a code step) never
/// reconstructs exactly, while ±1.5 · 2^-10 always does. Such a line is
/// still smaller delta-coded than raw, until its literals outgrow the
/// 16-bit count and it must go raw: the flip is at the same width.
#[test]
fn literal_overflow_matches_the_reference() {
    let cfg = EncoderConfig {
        escape_rel_tol: 0.0,
        abs_floor: 1.0,
        min_values_per_segment: 8,
    };
    let (bad, good) = (33.0 / 32768.0, 1.5 / 1024.0);
    let line = |width: usize| -> DeepCamSample {
        let mut x = 1.0f32;
        let values = (0..width).map(|j| {
            if j > 0 {
                let k = (j - 1) % 20;
                let step = if k < 14 { bad } else { good };
                x += if k % 2 == 0 { step } else { -step };
            }
            x
        });
        one_channel(&[values.collect()])
    };
    // Smallest width that goes raw.
    let (mut delta, mut raw) = (93_000usize, 94_500usize);
    assert_eq!(encode(&line(delta), &cfg).1.delta_lines, 1);
    assert_eq!(encode(&line(raw), &cfg).1.raw_lines, 1);
    while raw - delta > 1 {
        let mid = (delta + raw) / 2;
        if encode(&line(mid), &cfg).1.raw_lines == 1 {
            raw = mid;
        } else {
            delta = mid;
        }
    }
    assert_eq!(encode(&line(delta), &cfg).1.literals, usize::from(u16::MAX));
    for width in [delta - 1, delta, raw, raw + 1] {
        assert_same(&line(width), &cfg, &format!("width {width}"));
    }
}

#[test]
fn quantize_code_matches_the_reference_at_its_boundaries() {
    let big = (1.0 + 15.0 / 16.0) * 2f32.powi(5);
    let cases: [(f32, i8); 16] = [
        (0.25, -2),
        (-0.25, -2),
        (0.25 * (1.0 + 1.0 / 16.0), -2),
        (big, -2),
        (2f32.powi(8), 0),
        (2f32.powi(-9), -2),
        (0.24, -2),
        (0.125, -2),
        (-0.125, -2),
        (0.0, 0),
        (-0.0, 0),
        (-(1.0 + 15.0 / 16.0) * 2f32.powi(7), 0),
        (f32::MAX, 121),
        (f32::MAX, 127),
        (f32::INFINITY, 0),
        (f32::NAN, 0),
    ];
    for (d, base) in cases {
        assert_eq!(
            quantize_code(d, base),
            reference::quantize_code(d, base),
            "d={d:e} base={base}"
        );
    }
    // Random bit patterns at every base exponent.
    let mut state = 0xC0DE_u64;
    for base in i8::MIN..=i8::MAX {
        for _ in 0..2000 {
            let d = f32::from_bits(lcg(&mut state) as u32);
            assert_eq!(
                quantize_code(d, base),
                reference::quantize_code(d, base),
                "d={d:e} ({:#010x}) base={base}",
                d.to_bits()
            );
        }
    }
}

/// Every 23-bit mantissa at the smallest normal exponent, at 0 and at
/// the largest, plus every subnormal magnitude: the integer rounding
/// `(mantissa + 2^18) >> 19` is the float form's `round()`, carry into
/// the next exponent included.
#[test]
fn integer_mantissa_rounding_is_the_float_rounding_on_every_mantissa() {
    for (exp_field, base) in [(1u32, -126i8), (127, -3), (254, 121), (0, -126)] {
        for mantissa in 0..1u32 << 23 {
            let bits = (exp_field << 23) | mantissa;
            if bits == 0 {
                continue;
            }
            let d = f32::from_bits(bits);
            let got = quantize_code(d, base);
            if got != reference::quantize_code(d, base)
                || quantize_code(-d, base) != reference::quantize_code(-d, base)
            {
                panic!("d={d:e} ({bits:#010x}) base={base}: {got:?}");
            }
        }
    }
}

#[test]
fn code_delta_is_decode_code_for_every_code_and_base() {
    for base in i8::MIN..=i8::MAX {
        for code in CODE_ZERO..CODE_ESCAPE {
            let want = decode_code(code, base).unwrap();
            let got = code_delta(code, base);
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "code {code:#04x} base {base}: {got:e} vs {want:e}"
            );
        }
    }
}

// ---------------------------------------------------------------------
// The lockstep shape: a channel is encoded sixteen lines at a time, one
// line to a lane. Every case below runs at every SIMD tier this host
// has, under the default configuration and the three others
// `generated_samples_encode_to_the_reference_bytes` uses.
// ---------------------------------------------------------------------

/// The default configuration and the three non-default ones of
/// `generated_samples_encode_to_the_reference_bytes`.
fn lockstep_cfgs() -> Vec<EncoderConfig> {
    let mut cfgs = vec![EncoderConfig::default()];
    for (tol, floor, per_segment) in [(0.0, 1e-6, 8), (0.002, 0.01, 2), (0.5, 10.0, 64)] {
        cfgs.push(EncoderConfig {
            escape_rel_tol: tol,
            abs_floor: floor,
            min_values_per_segment: per_segment,
        });
    }
    cfgs
}

/// [`assert_same`] under every configuration of [`lockstep_cfgs`], at
/// every tier this host can run.
#[track_caller]
fn assert_same_everywhere(sample: &DeepCamSample, what: &str) {
    for level in sciml_simd::supported_levels() {
        let _tier = sciml_simd::force(Some(level));
        for cfg in lockstep_cfgs() {
            assert_same(sample, &cfg, &format!("{what}, {} {cfg:?}", level.name()));
        }
    }
}

/// A line of `width` values whose every delta is small and smooth, so
/// that it is a delta line at every configuration.
fn smooth_line(width: usize, salt: u64) -> Vec<f32> {
    (0..width)
        .map(|i| 250.0 + (i as f32 * 0.07 + salt as f32).sin() * 3.0 + salt as f32)
        .collect()
}

/// Each of `hand_built_lines_encode_to_the_reference_bytes`' kinds of
/// line at every lane of a full group, the other fifteen lanes smooth
/// delta lines: a lane carries nothing into its neighbours.
#[test]
fn every_kind_of_line_at_every_lane_of_a_group() {
    let n = 96usize;
    let mut state = 0x1A9E_u64;
    let random: Vec<u32> = (0..n).map(|_| lcg(&mut state) as u32).collect();
    let kinds: Vec<(&str, Vec<f32>)> = vec![
        ("constant", vec![3.5; n]),
        ("constant nan", vec![f32::NAN; n]),
        ("smooth", smooth_line(n, 9)),
        (
            "nan head",
            (0..n)
                .map(|i| if i == 0 { f32::NAN } else { i as f32 * 0.5 })
                .collect(),
        ),
        (
            "+inf mid-line",
            (0..n)
                .map(|i| if i == 50 { f32::INFINITY } else { i as f32 })
                .collect(),
        ),
        (
            "subnormal deltas",
            (0..n)
                .map(|i| f32::from_bits(i as u32 * 0x1_2345))
                .collect(),
        ),
        (
            "exponent swings",
            (0..n)
                .map(|i| match i % 4 {
                    0 | 2 => 0.0,
                    1 => 256.0,
                    _ => 0.5,
                })
                .collect(),
        ),
        (
            "overflowing delta",
            (0..n)
                .map(|i| if i % 2 == 0 { 3e38 } else { -3e38 })
                .collect(),
        ),
        (
            "near f32::MAX",
            (0..n)
                .map(|i| f32::MAX * (0.5 + i as f32 / 256.0))
                .collect(),
        ),
        (
            "random bits",
            random.iter().map(|&b| f32::from_bits(b)).collect(),
        ),
        ("sign flips", (0..n).map(|i| [1.0, -1.0][i % 2]).collect()),
    ];
    for (name, line) in &kinds {
        for lane in 0..16 {
            let mut lines: Vec<Vec<f32>> = (0..16).map(|l| smooth_line(n, l)).collect();
            lines[lane] = line.clone();
            assert_same_everywhere(&one_channel(&lines), &format!("{name} in lane {lane}"));
        }
    }
}

/// Full groups, a short last group and groups of one, at widths that are
/// one value, a block of four and a remainder, and the benchmark's.
#[test]
fn every_group_shape() {
    for height in [1usize, 15, 16, 17, 33, 191] {
        for width in [1usize, 2, 9, 288] {
            let generator = ClimateGenerator::new(DeepCamConfig {
                width,
                height,
                channels: 2,
                seed: 0x10C5 + height as u64,
                ..DeepCamConfig::test_small()
            });
            assert_same_everywhere(
                &generator.generate(width as u64),
                &format!("{height} lines of {width}"),
            );
        }
    }
}

/// Sixteen lines at the widths around the literal-overflow flip: lanes
/// go raw for too many literals beside lanes that stay delta lines.
#[test]
fn a_group_at_the_literal_overflow_flip() {
    let cfg = EncoderConfig {
        escape_rel_tol: 0.0,
        abs_floor: 1.0,
        min_values_per_segment: 8,
    };
    let (bad, good) = (33.0 / 32768.0, 1.5 / 1024.0);
    let flip_line = |width: usize| -> Vec<f32> {
        let mut x = 1.0f32;
        (0..width)
            .map(|j| {
                if j > 0 {
                    let k = (j - 1) % 20;
                    let step = if k < 14 { bad } else { good };
                    x += if k % 2 == 0 { step } else { -step };
                }
                x
            })
            .collect()
    };
    // The flip `literal_overflow_matches_the_reference` finds.
    let flip = encode(&one_channel(&[flip_line(93_620)]), &cfg).1;
    let width = if flip.raw_lines == 1 { 93_600 } else { 93_640 };
    for offset in [0usize, 20, 40] {
        let w = width + offset;
        let lines: Vec<Vec<f32>> = (0..16)
            .map(|l| {
                if l % 3 == 0 {
                    smooth_line(w, l as u64)
                } else {
                    flip_line(w)
                }
            })
            .collect();
        for level in sciml_simd::supported_levels() {
            let _tier = sciml_simd::force(Some(level));
            assert_same(
                &one_channel(&lines),
                &cfg,
                &format!("width {w}, {}", level.name()),
            );
        }
    }
}

/// The steps pass 2 leaves to the scalar quantiser, in lanes 0, 7 and 15
/// and on the value just before a segment head: a subnormal delta at base
/// exponent −126, and deltas whose code exponent `base + e_off` passes
/// 127 — one that rounds up past 2^127 in a segment of base 121, and the
/// infinite delta after it, which only an infinite tolerance lets through
/// to the next step; and the infinite delta after a head of −∞.
#[test]
fn slow_lanes_at_the_edges_of_a_group() {
    let n = 64usize;
    // Tiny normal steps, then a subnormal one: a segment of base −126.
    let subnormal = |at: usize| -> Vec<f32> {
        (0..n)
            .map(|i| {
                let base = f32::from_bits(0x0080_0000 + i as u32 * 0x10_0000);
                if i == at {
                    f32::from_bits(base.to_bits() - 3)
                } else {
                    base
                }
            })
            .collect()
    };
    // Deltas of 2^121..2^123 keep the base at 121; at `at` a step rounds
    // up past 2^127.
    let huge = |at: usize| -> Vec<f32> {
        let mut x = -f32::MAX;
        (0..n)
            .map(|i| {
                let d = if i == at {
                    f32::from_bits(0x7F7F_FFFF)
                } else {
                    exp2i(121 + (i % 3) as i32)
                };
                if i > 0 {
                    x = (x + d).min(f32::MAX);
                }
                x
            })
            .collect()
    };
    let infinite_head = |_: usize| -> Vec<f32> {
        let mut line = huge(n);
        line[0] = f32::NEG_INFINITY;
        line
    };
    let mut cfgs = lockstep_cfgs();
    cfgs.push(EncoderConfig {
        escape_rel_tol: f32::INFINITY,
        ..EncoderConfig::default()
    });
    type Line<'a> = &'a dyn Fn(usize) -> Vec<f32>;
    let cases: [(&str, Line); 3] = [
        ("subnormal", &subnormal),
        ("huge", &huge),
        ("infinite head", &infinite_head),
    ];
    for (name, line) in cases {
        // Mid-line, and where a head follows: an exponent swing at
        // `at + 1` closes the segment there.
        for at in [20usize, 40] {
            let mut slow = line(at);
            if at == 40 {
                let x = slow[at];
                slow[at + 1] = if x.abs() > 1e30 {
                    x - x * 2e-6
                } else {
                    x + 1e30
                };
            }
            for lane in [0usize, 7, 15] {
                let mut lines: Vec<Vec<f32>> = (0..16).map(|l| smooth_line(n, l)).collect();
                lines[lane] = slow.clone();
                let sample = one_channel(&lines);
                for level in sciml_simd::supported_levels() {
                    let _tier = sciml_simd::force(Some(level));
                    for cfg in &cfgs {
                        let what = format!("{name} at {at} in lane {lane}, {}", level.name());
                        assert_same(&sample, cfg, &format!("{what} {cfg:?}"));
                    }
                }
            }
        }
    }
}
