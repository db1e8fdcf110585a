//! The decoder against [`super::reference_decode`], the two-pass decoder
//! it replaced, under the rule every rewrite since was made under: a
//! speed change may not change a bit. Delta lines are compared as FP32
//! (the line before narrowing), whole samples as the FP16 they emit under
//! each of the four operators; a payload the reference rejects must be
//! rejected with the same error, and in a sample, the first failing
//! line's.
//!
//! A sample is decoded every way the host can: the per-line loop, and
//! sixteen lines at a time at avx2 where the CPU has it
//! (`decode_lockstep.rs`), each called directly rather than through the
//! process-wide tier override, which concurrent tests share. The ci
//! simd-matrix runs the suite under every `SCIML_SIMD` tier as well, which
//! moves the narrowing kernels.

use super::decode::{decode_groups, decode_lines, reconstruct_delta_line};
use super::decode_lockstep::{self, Tier};
use super::{
    decode_into, decode_line_into, encode, reference_decode, DeepCamView, EncodedDeepCam,
    EncoderConfig, LineMeta, LineMode, CODE_ESCAPE, CODE_ZERO,
};
use crate::{CodecError, Op};
use proptest::prelude::*;
use sciml_data::deepcam::{ClimateGenerator, DeepCamConfig};
use sciml_half::F16;

/// One segment of a hand-built delta line: head, base exponent, codes.
type Seg<'a> = (f32, i8, &'a [u8]);

/// A delta line payload as the encoder lays it out.
fn delta_payload(segments: &[Seg<'_>], literals: &[f32]) -> Vec<u8> {
    let mut p = Vec::new();
    p.extend_from_slice(&(segments.len() as u16).to_le_bytes());
    p.extend_from_slice(&(literals.len() as u16).to_le_bytes());
    for (head, base_exp, codes) in segments {
        p.extend_from_slice(&head.to_le_bytes());
        p.extend_from_slice(&(codes.len() as u16 + 1).to_le_bytes());
        p.push(*base_exp as u8);
        p.push(0);
    }
    for (_, _, codes) in segments {
        p.extend_from_slice(codes);
    }
    for l in literals {
        p.extend_from_slice(&l.to_le_bytes());
    }
    p
}

fn width_of(segments: &[Seg<'_>]) -> usize {
    segments.iter().map(|(_, _, c)| c.len() + 1).sum()
}

/// Both decoders over one delta payload at `width`: the same FP32 bits
/// (NaN by class: an add may quieten one) or the same error.
#[track_caller]
fn assert_same_line(payload: &[u8], width: usize, what: &str) {
    // Dirty scratch: the new decoder does not zero it.
    let mut got = vec![f32::from_bits(0x7FC0_1234); width];
    let mut want = vec![0.0f32; width];
    let g = reconstruct_delta_line(payload, &mut got);
    let w = reference_decode::reconstruct_delta_line(payload, &mut want);
    assert_eq!(g, w, "{what}: result");
    if w.is_ok() {
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            assert!(
                g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()),
                "{what}: value {i}: {:#010x} vs {:#010x}",
                g.to_bits(),
                w.to_bits()
            );
        }
    }
}

/// [`assert_same_line`], then the line as a sample of its own through
/// every decoder, a group of one lane at the vector tier.
#[track_caller]
fn assert_same_segments(segments: &[Seg<'_>], literals: &[f32], what: &str) {
    let (payload, width) = (delta_payload(segments, literals), width_of(segments));
    assert_same_line(&payload, width, what);
    assert_same_sample(&sample_of(width, &[(LineMode::Delta, payload)]), what);
}

/// The four operators.
fn ops() -> [Op; 4] {
    [
        Op::Identity,
        Op::Normalize {
            scale: 0.05,
            offset: 270.0,
        },
        Op::Log1p,
        Op::Log1pNormalize {
            scale: 2.0,
            offset: 1.0,
        },
    ]
}

/// Every way this host decodes a sample: the per-line loop (`None`), and
/// the groups at the vector tier, if its CPU has it.
fn decoders() -> Vec<Option<Tier>> {
    std::iter::once(None)
        .chain(decode_lockstep::cpu_tier().map(Some))
        .collect()
}

/// `enc` into `out` the way `decoder` names.
fn decode_with(
    decoder: Option<Tier>,
    enc: &EncodedDeepCam,
    op: Op,
    out: &mut [F16],
) -> Result<(), CodecError> {
    match decoder {
        None => decode_lines(&enc.view(), op, out),
        Some(tier) => decode_groups(&enc.view(), op, out, tier),
    }
}

/// Every decoder over one owned sample against the reference, FP16 out,
/// under each operator: the same bits (NaN by class) or the same error.
#[track_caller]
fn assert_same_sample(enc: &EncodedDeepCam, what: &str) {
    for op in ops() {
        let mut want = vec![F16::ZERO; enc.n_values()];
        let w = reference_decode::decode_into(enc, op, &mut want);
        for decoder in decoders() {
            // Dirty output: every slot must be written.
            let mut got = vec![F16::ONE; enc.n_values()];
            let g = decode_with(decoder, enc, op, &mut got);
            let what = format!("{what}: {decoder:?} {op:?}");
            assert_eq!(g, w, "{what}");
            if w.is_ok() {
                let diff = got.iter().zip(&want).position(|(g, w)| {
                    g.to_bits() != w.to_bits() && !(g.to_f32().is_nan() && w.to_f32().is_nan())
                });
                assert!(diff.is_none(), "{what}: value {diff:?}");
            }
        }
    }
}

/// A one-channel sample of `width`-value lines from their modes and
/// payloads, laid out one after another.
fn sample_of(width: usize, lines: &[(LineMode, Vec<u8>)]) -> EncodedDeepCam {
    let mut payload = Vec::new();
    let mut directory = Vec::new();
    for (mode, bytes) in lines {
        directory.push(LineMeta {
            mode: *mode,
            offset: payload.len() as u32,
            len: bytes.len() as u32,
        });
        payload.extend_from_slice(bytes);
    }
    EncodedDeepCam {
        width: width as u32,
        height: lines.len() as u32,
        channels: 1,
        lines: directory,
        payload,
        mask: vec![],
    }
}

/// A delta line of `width` values, one segment of small steps.
fn smooth_delta(width: usize, salt: u8) -> (LineMode, Vec<u8>) {
    let codes: Vec<u8> = (0..width - 1)
        .map(|i| 0x10 | ((i as u8 ^ salt) & 0x9F))
        .collect();
    let payload = delta_payload(&[(250.0 + salt as f32, -4, &codes)], &[]);
    (LineMode::Delta, payload)
}

fn raw(values: &[f32]) -> (LineMode, Vec<u8>) {
    let bytes = values.iter().flat_map(|v| v.to_le_bytes()).collect();
    (LineMode::RawF32, bytes)
}

fn constant(v: f32) -> (LineMode, Vec<u8>) {
    (LineMode::Constant, v.to_le_bytes().to_vec())
}

fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 11
}

/// All 256 codes at every base exponent — inside the window of the
/// bit identity, at its edges −126 and 120, and in the fallback range
/// on both sides — in segments of 1 to 20 values, so every code sits
/// first, last and in between, escapes included.
#[test]
fn every_code_at_every_base_exponent_and_segment_length() {
    let all: Vec<u8> = (0..=255u8).collect();
    for base in i8::MIN..=i8::MAX {
        // One long segment holding every code once, the escape last.
        let head = 1.5 * super::exp2i(base as i32 + 3);
        assert_same_segments(
            &[(head, base, &all)],
            &[0.25],
            &format!("all codes, base {base}"),
        );
        // Then the codes cut into segments of each length in turn.
        for len in 1..=20usize {
            let start = (len * 37 + (base as i32 + 128) as usize) % 256;
            let codes: Vec<u8> = (0..len - 1).map(|i| all[(start + i * 13) % 256]).collect();
            let escapes = codes.iter().filter(|&&c| c == CODE_ESCAPE).count();
            let mut lits: Vec<f32> = (0..escapes).map(|i| -3.0 + i as f32).collect();
            let tail: Vec<u8> = all[start..].iter().copied().take(len).collect();
            let tail_escapes = tail.iter().filter(|&&c| c == CODE_ESCAPE).count();
            lits.extend((0..tail_escapes).map(|i| 7.0 + i as f32));
            assert_same_segments(
                &[(head, base, &codes), (-head, base, &tail)],
                &lits,
                &format!("base {base} len {len}"),
            );
        }
    }
}

/// Heads and literals that arithmetic treats specially, each followed
/// by a zero code, a positive and a negative delta.
#[test]
fn special_heads_and_literals() {
    let specials = [
        0.0f32,
        -0.0,
        f32::from_bits(1),
        -f32::from_bits(0x007F_FFFF),
        f32::MIN_POSITIVE,
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::NAN,
        f32::from_bits(0x7FA0_0001),
        f32::from_bits(0xFFC0_0055),
        f32::MAX,
        -f32::MAX,
    ];
    for &x in &specials {
        for base in [-128i8, -126, -60, 0, 100, 120, 121, 127] {
            let what = format!("{:#010x} base {base}", x.to_bits());
            // As a head: −0.0 followed by CODE_ZERO must come out +0.0.
            assert_same_segments(
                &[(x, base, &[CODE_ZERO, CODE_ZERO, 0x35, 0xB5])],
                &[],
                &what,
            );
            // As a literal, mid-segment.
            assert_same_segments(
                &[(1.0, base, &[0x10, CODE_ESCAPE, CODE_ZERO, 0x35, 0xB5])],
                &[x],
                &what,
            );
        }
    }
    // The case by name: a −0.0 running value under a zero code.
    let mut vals = [9.0f32; 3];
    reconstruct_delta_line(
        &delta_payload(&[(-0.0, 0, &[CODE_ZERO, CODE_ZERO])], &[]),
        &mut vals,
    )
    .unwrap();
    assert_eq!(
        vals.map(f32::to_bits),
        [(-0.0f32).to_bits(), 0, 0],
        "head stays −0.0, the add of +0.0 makes +0.0"
    );
}

#[test]
fn escapes_first_last_and_adjacent() {
    let e = CODE_ESCAPE;
    let cases: [(&[u8], usize); 6] = [
        (&[e, 0x21, 0x22], 1),
        (&[0x21, 0x22, e], 1),
        (&[e, e, 0x21], 2),
        (&[0x21, e, e, e, 0xA2], 3),
        (&[e], 1),
        (&[e, e], 2),
    ];
    for (codes, n) in cases {
        let lits: Vec<f32> = (0..n).map(|i| 100.0 - i as f32 * 0.5).collect();
        for base in [-127i8, -3, 121] {
            assert_same_segments(
                &[(2.0, base, codes), (5.0, base, &[0x01]), (7.0, base, codes)],
                &[lits.clone(), lits.clone()].concat(),
                &format!("{codes:02x?} base {base}"),
            );
        }
    }
}

/// Constant and raw lines, which do not pass through the delta loop but
/// do pass through the view: three lines, fewer than a group, through
/// every decoder and through the public `decode_into`.
#[test]
fn constant_and_raw_lines() {
    let enc = sample_of(
        5,
        &[
            constant(3.5),
            raw(&[1.0, -0.0, f32::NAN, 65504.0, 1e-8]),
            constant(f32::NEG_INFINITY),
        ],
    );
    assert_same_sample(&enc, "constant / raw / constant");
    for op in ops() {
        let mut got = vec![F16::ONE; enc.n_values()];
        let mut want = vec![F16::ZERO; enc.n_values()];
        decode_into(&enc, op, &mut got).unwrap();
        reference_decode::decode_into(&enc, op, &mut want).unwrap();
        assert!(
            got.iter()
                .zip(&want)
                .all(|(g, w)| g.to_bits() == w.to_bits()
                    || (g.to_f32().is_nan() && w.to_f32().is_nan())),
            "constant / raw / constant: decode_into {op:?}"
        );
    }
    // A constant or raw payload one f32 too short or too long, as the
    // second line of three and in lane 9 of eighteen: the reference's
    // error, from every decoder.
    let bad = [
        (LineMode::Constant, vec![0u8; 0]),
        (LineMode::Constant, vec![0u8; 8]),
        (LineMode::RawF32, vec![0u8; 16]),
        (LineMode::RawF32, vec![0u8; 24]),
    ];
    for (k, line) in bad.into_iter().enumerate() {
        let mut lines = vec![constant(1.0), line, smooth_delta(5, 3)];
        assert_same_sample(&sample_of(5, &lines), &format!("bad size {k}"));
        lines.resize_with(18, || smooth_delta(5, 7));
        lines.swap(1, 9);
        assert_same_sample(&sample_of(5, &lines), &format!("bad size {k}, lane 9"));
    }
}

/// Groups that mix constant, raw and delta lines, at widths around a
/// pass-2 block of four (and its tail) and a pass-1 step of eight: every
/// position of a constant or raw line restarts its lane's chain, and the
/// delta lanes beside them carry on.
#[test]
fn groups_mixing_constant_raw_and_delta_lines() {
    let specials = [
        1.0f32,
        -0.0,
        f32::NAN,
        65504.0,
        1e-8,
        f32::NEG_INFINITY,
        -3.5,
    ];
    for width in [1usize, 3, 4, 5, 7, 8, 9] {
        // Eighteen lines: a full group, then two.
        let lines: Vec<(LineMode, Vec<u8>)> = (0..18)
            .map(|i| match i % 3 {
                0 => constant(specials[i % specials.len()]),
                1 => raw(&(0..width)
                    .map(|j| specials[(i + j) % 7])
                    .collect::<Vec<_>>()),
                _ => smooth_delta(width, i as u8),
            })
            .collect();
        assert_same_sample(&sample_of(width, &lines), &format!("width {width}"));
        // The same lines, every kind in every lane.
        for shift in 1..3 {
            let mut rotated = lines.clone();
            rotated.rotate_left(shift);
            assert_same_sample(
                &sample_of(width, &rotated),
                &format!("width {width} +{shift}"),
            );
        }
    }
}

/// Escapes at a line's first and at its last coded position, and both,
/// in different lanes of a group, the other lanes smooth; in one segment
/// and in the last of three, at widths that end a pass-1 step exactly, one
/// short and one over.
#[test]
fn escapes_at_a_lines_first_and_last_code_in_different_lanes() {
    let e = CODE_ESCAPE;
    for width in [9usize, 16, 17, 18, 288] {
        let n = width - 1;
        let mut first = vec![0x21u8; n];
        first[0] = e;
        let mut last = vec![0xA3u8; n];
        last[n - 1] = e;
        let mut both = vec![CODE_ZERO; n];
        (both[0], both[n - 1]) = (e, e);
        let escaped = [(first, 1usize), (last, 1), (both, 2)];
        for lanes in [[0usize, 1, 15], [15, 7, 0], [3, 8, 12]] {
            let mut lines: Vec<_> = (0..16).map(|l| smooth_delta(width, l as u8)).collect();
            for ((codes, k), &lane) in escaped.iter().zip(&lanes) {
                let lits: Vec<f32> = (0..*k).map(|i| -7.5 + i as f32).collect();
                lines[lane] = (LineMode::Delta, delta_payload(&[(1.0, -2, codes)], &lits));
            }
            // The same escapes in the last of three segments.
            let mut tail = vec![0x42u8; width - 5];
            tail[0] = e;
            tail[width - 6] = e;
            let segments: [Seg<'_>; 3] = [(3.0, 0, &[0x11]), (4.0, -1, &[0x91]), (5.0, 1, &tail)];
            lines[lanes[0] ^ 4] = (LineMode::Delta, delta_payload(&segments, &[9.0, -9.0]));
            assert_same_sample(
                &sample_of(width, &lines),
                &format!("width {width} lanes {lanes:?}"),
            );
        }
    }
}

/// One lane whose line has a segment outside the `CODE_BITS` window, at
/// each edge and beyond: pass 1 runs its chain itself and pass 2 copies
/// the values, next to lanes it steps.
#[test]
fn a_lane_with_a_segment_outside_the_window() {
    let codes: Vec<u8> = (0..23u8)
        .map(|i| [0x01, 0x7E, 0x80, 0xFE, CODE_ZERO, CODE_ESCAPE][i as usize % 6] ^ (i & 0x10))
        .collect();
    let escapes = codes.iter().filter(|&&c| c == CODE_ESCAPE).count();
    let lits: Vec<f32> = (0..escapes).map(|i| 0.5 + i as f32).collect();
    for base in [-128i8, -127, -126, 120, 121, 127] {
        for lane in [0usize, 6, 15] {
            let width = 2 * (codes.len() + 1);
            let mut lines: Vec<_> = (0..17).map(|l| smooth_delta(width, l as u8)).collect();
            let head = 1.5 * super::exp2i(base as i32 + 3);
            let segments: [Seg<'_>; 2] = [(head, base, &codes), (2.0, 0, &codes)];
            lines[lane] = (
                LineMode::Delta,
                delta_payload(&segments, &[lits.clone(), lits.clone()].concat()),
            );
            assert_same_sample(
                &sample_of(width, &lines),
                &format!("base {base} lane {lane}"),
            );
        }
    }
}

/// `−0.0` and NaN heads, quiet and signalling, at a line's start and in
/// the middle, each followed by zero codes (a `−0.0` running value under
/// a zero code comes out `+0.0`) and small steps, in every lane.
#[test]
fn negative_zero_and_nan_heads_in_every_lane() {
    let heads = [
        -0.0f32,
        f32::NAN,
        f32::from_bits(0x7FA0_0001),
        f32::from_bits(0xFFC0_0055),
    ];
    let codes = [CODE_ZERO, CODE_ZERO, 0x35, 0xB5, CODE_ZERO, 0x01, 0x80];
    let width = 2 * (codes.len() + 1);
    for (k, &head) in heads.iter().enumerate() {
        for lane in 0..16 {
            let mut lines: Vec<_> = (0..16).map(|l| smooth_delta(width, l as u8)).collect();
            let segments: [Seg<'_>; 2] = if lane % 2 == 0 {
                [(head, 0, &codes), (1.0, -3, &codes)]
            } else {
                [(1.0, -3, &codes), (head, 0, &codes)]
            };
            lines[lane] = (LineMode::Delta, delta_payload(&segments, &[]));
            lines[(lane + 5) % 16] = (
                LineMode::Delta,
                delta_payload(&[(-0.0, 4, &codes), (head, -9, &codes)], &[]),
            );
            assert_same_sample(&sample_of(width, &lines), &format!("head {k} lane {lane}"));
        }
    }
}

/// The generated samples of the encoder's differential suite, decoded:
/// through the owned sample every way, and through a view parsed from
/// their wire bytes. Eighteen and thirty-three lines, so a sample's last
/// group is short; widths from one value to the paper's, across a pass-2
/// block of four and a pass-1 step of eight.
#[test]
fn generated_samples_decode_to_the_reference_bits() {
    for width in [1usize, 3, 4, 5, 7, 8, 9, 288, 1152] {
        for seed in 0..32u64 {
            let generator = ClimateGenerator::new(DeepCamConfig {
                width,
                height: [6, 11][seed as usize % 2],
                channels: 3,
                seed: 0xDCA0 + seed,
                ..DeepCamConfig::test_small()
            });
            let (enc, _) = encode(&generator.generate(seed), &EncoderConfig::default());
            let what = format!("width {width} seed {seed}");
            assert_same_sample(&enc, &what);
            let bytes = enc.to_bytes();
            let view = DeepCamView::parse(&bytes).unwrap();
            let mut got = vec![F16::ONE; enc.n_values()];
            let mut want = vec![F16::ZERO; enc.n_values()];
            super::decode_view_into(&view, Op::Identity, &mut got).unwrap();
            reference_decode::decode_into(&enc, Op::Identity, &mut want).unwrap();
            assert!(got == want, "{what}: parsed view");
            assert_eq!(view.mask, &enc.mask[..], "{what}: mask");
        }
    }
}

/// One hostile delta payload and the width to decode it at.
#[derive(Debug, Clone)]
struct HostileLine {
    payload: Vec<u8>,
    width: usize,
}

/// Delta payloads a server could send: up to five segments of 0 to 11
/// values with arbitrary heads and base exponents, codes biased toward
/// escapes and zeros, a literal count that is mostly honest and
/// sometimes one off or wild, a width that is mostly the segments' sum,
/// and sometimes a cut or an extra byte.
fn hostile_line() -> impl Strategy<Value = HostileLine> {
    let segment = (any::<u32>(), 0u16..12, any::<u8>());
    let code = prop_oneof![
        Just(CODE_ESCAPE),
        Just(CODE_ZERO),
        any::<u8>(),
        any::<u8>(),
        any::<u8>()
    ];
    (
        prop::collection::vec(segment, 0..6),
        prop::collection::vec(code, 60..=60),
        prop::collection::vec(any::<u32>(), 64..=64),
        (0u8..10, 0usize..70_000),
        0u8..8,
        (0u8..8, any::<u16>()),
    )
        .prop_map(
            |(segments, codes, literals, lit, width_how, (cut_how, cut))| {
                let honest_width: usize = segments.iter().map(|s| s.1 as usize).sum();
                let n_codes: usize = segments
                    .iter()
                    .map(|s| s.1.saturating_sub(1) as usize)
                    .sum();
                let codes = &codes[..n_codes];
                let escapes = codes.iter().filter(|&&c| c == CODE_ESCAPE).count();
                let n_literals = match lit {
                    (0, _) => escapes + 1,
                    (1, _) => escapes.saturating_sub(1),
                    (2, wild) => wild,
                    _ => escapes,
                };
                let mut p = Vec::new();
                p.extend_from_slice(&(segments.len() as u16).to_le_bytes());
                p.extend_from_slice(&(n_literals as u16).to_le_bytes());
                for (head, count, base_exp) in &segments {
                    p.extend_from_slice(&head.to_le_bytes());
                    p.extend_from_slice(&count.to_le_bytes());
                    p.extend_from_slice(&[*base_exp, 0]);
                }
                p.extend_from_slice(codes);
                for l in literals.iter().take(n_literals) {
                    p.extend_from_slice(&l.to_le_bytes());
                }
                match cut_how {
                    0 => p.truncate(cut as usize % (p.len() + 1)),
                    1 => p.push(0),
                    _ => {}
                }
                let width = match width_how {
                    0 => honest_width + 1,
                    1 => honest_width.saturating_sub(1),
                    _ => honest_width,
                };
                HostileLine { payload: p, width }
            },
        )
}

const HOSTILE_CASES: u32 = 4096;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(HOSTILE_CASES))]

    /// `Ok` with the reference's bits or `Err` with its error — and
    /// never a panic, in either build.
    #[test]
    fn hostile_line_payloads_get_the_reference_answer(line in hostile_line()) {
        use std::sync::atomic::{AtomicU32, Ordering::Relaxed};
        static SEEN: AtomicU32 = AtomicU32::new(0);
        static DECODED: AtomicU32 = AtomicU32::new(0);
        assert_same_line(&line.payload, line.width, "hostile line");
        let mut vals = vec![0.0f32; line.width];
        if reconstruct_delta_line(&line.payload, &mut vals).is_ok() {
            DECODED.fetch_add(1, Relaxed);
        }
        // The strategy must reach the loop, not only the checks before
        // it: of all the cases, a good share decodes.
        if SEEN.fetch_add(1, Relaxed) + 1 == HOSTILE_CASES {
            let decoded = DECODED.load(Relaxed);
            prop_assert!(decoded > HOSTILE_CASES / 8, "only {} lines decoded", decoded);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// One hostile payload among fifteen valid lines of a group, in any
    /// lane, then with a line after it in the group that fails in its
    /// own way: every decoder returns the reference's answer — its bits,
    /// or the first failing line's error — and none panics.
    #[test]
    fn a_hostile_line_in_a_group_gets_the_reference_answer(
        line in hostile_line(),
        lane in 0usize..16,
        later in 1usize..16,
        more in 0usize..3,
    ) {
        let width = line.width.max(1);
        let mut lines: Vec<_> = (0..16 + more).map(|l| smooth_delta(width, l as u8)).collect();
        lines[lane] = (LineMode::Delta, line.payload);
        assert_same_sample(&sample_of(width, &lines), "hostile line in a group");
        if lane + later < 16 {
            lines[lane + later] = (LineMode::Constant, vec![0; 3]);
            assert_same_sample(&sample_of(width, &lines), "and a failing line after it");
        }
    }
}

/// A sample whose directory is hand-built to point outside its payload
/// (every field of [`EncodedDeepCam`] is public): a typed error where
/// the range is used, not a slice-index panic.
#[test]
fn hand_built_directories_out_of_range_are_typed_errors() {
    let line = |offset: u32, len: u32| LineMeta {
        mode: LineMode::Constant,
        offset,
        len,
    };
    let sample = |lines: Vec<LineMeta>| EncodedDeepCam {
        width: 4,
        height: 2,
        channels: 1,
        lines,
        payload: vec![0u8; 8],
        mask: vec![],
    };
    let out_of_range = Err(CodecError::Inconsistent("line payload out of range"));
    for bad in [line(6, 4), line(8, 1), line(u32::MAX, 2), line(2, u32::MAX)] {
        let enc = sample(vec![line(0, 4), bad]);
        let mut out = [F16::ZERO; 8];
        assert_eq!(decode_into(&enc, Op::Identity, &mut out), out_of_range);
        assert_eq!(
            decode_line_into(&enc.view(), 1, Op::Identity, &mut out[..4]),
            out_of_range
        );
        assert_eq!(enc.view().line(1).map(|_| ()), out_of_range);
        // The good line of the same sample still decodes.
        decode_line_into(&enc.view(), 0, Op::Identity, &mut out[..4]).unwrap();
    }
    // A directory of the wrong length, either way.
    for lines in [vec![line(0, 4)], vec![line(0, 4); 3], vec![]] {
        let enc = sample(lines);
        let mut out = [F16::ZERO; 8];
        let wrong_length = Err(CodecError::Inconsistent(
            "directory length != channels × height",
        ));
        assert_eq!(decode_into(&enc, Op::Identity, &mut out), wrong_length);
        assert_eq!(
            decode_line_into(&enc.view(), 0, Op::Identity, &mut out[..4]),
            wrong_length
        );
    }
}

/// The 36-byte blob that used to kill a decode thread at
/// `chunks_mut(0)`: `DCMX`, version 1, all three dimensions zero, an
/// empty payload and mask. And its sibling with lines of no channel.
#[test]
fn zero_width_samples_are_rejected_at_parse_and_at_decode() {
    let blob = |width: u32, height: u32, channels: u32| {
        let mut b = b"DCMX".to_vec();
        for field in [1, width, height, channels] {
            b.extend_from_slice(&field.to_le_bytes());
        }
        b.extend_from_slice(&[0u8; 16]);
        b
    };
    let zero_width = CodecError::Corrupt("zero-width lines");
    for (w, h, c) in [(0, 0, 0), (0, 5, 0), (0, 0, 3)] {
        let bytes = blob(w, h, c);
        assert_eq!(bytes.len(), 36);
        assert_eq!(EncodedDeepCam::from_bytes(&bytes), Err(zero_width.clone()));
        assert_eq!(
            DeepCamView::parse(&bytes).map(|_| ()),
            Err(zero_width.clone())
        );
        // Built by hand, past every parser.
        let enc = EncodedDeepCam {
            width: w,
            height: h,
            channels: c,
            lines: vec![],
            payload: vec![],
            mask: vec![],
        };
        assert_eq!(
            decode_into(&enc, Op::Identity, &mut []),
            Err(zero_width.clone())
        );
        assert_eq!(super::decode(&enc, Op::Identity), Err(zero_width.clone()));
    }
    // No lines of a real width is a sample of nothing, as before; nor of
    // a width no group's scratch may be sized from.
    for width in [5, 1 << 30, u32::MAX] {
        let bytes = blob(width, 0, 1);
        let view = DeepCamView::parse(&bytes).unwrap();
        super::decode_view_into(&view, Op::Identity, &mut []).unwrap();
    }
}

/// Parses `data` as a view, as an owned sample and with the frozen
/// parser; all three must agree on accept and on the error.
#[track_caller]
fn assert_parsers_agree(data: &[u8], what: &str) {
    let want = reference_decode::from_bytes(data);
    assert_eq!(EncodedDeepCam::from_bytes(data), want, "{what}: owned");
    match DeepCamView::parse(data) {
        Ok(view) => {
            let owned = want.unwrap_or_else(|e| panic!("{what}: view parsed, frozen {e:?}"));
            assert_eq!(
                (view.width, view.height, view.channels),
                (owned.width, owned.height, owned.channels),
                "{what}"
            );
            assert_eq!(view.mask, &owned.mask[..], "{what}");
            for (idx, l) in owned.lines.iter().enumerate() {
                let (mode, bytes) = view.line(idx).unwrap();
                assert_eq!(mode, l.mode, "{what}: line {idx}");
                assert_eq!(
                    bytes,
                    &owned.payload[l.offset as usize..(l.offset + l.len) as usize],
                    "{what}: line {idx}"
                );
            }
            assert!(view.line(owned.lines.len()).is_err(), "{what}");
        }
        Err(e) => assert_eq!(want, Err(e), "{what}"),
    }
}

#[test]
fn view_parse_is_from_bytes_on_every_truncation_and_header() {
    let sample = ClimateGenerator::new(DeepCamConfig {
        width: 40,
        height: 5,
        channels: 2,
        ..DeepCamConfig::test_small()
    })
    .generate(3);
    let (enc, _) = encode(&sample, &EncoderConfig::default());
    // The sample as it is written, and under the retired version 2.
    let mut v2 = enc.to_bytes();
    v2[4] = 2;
    assert_eq!(
        DeepCamView::parse(&v2).err(),
        Some(CodecError::Corrupt("unsupported version"))
    );
    for (name, blob) in [("v1", enc.to_bytes()), ("v2", v2)] {
        assert_parsers_agree(&blob, name);
        for cut in 0..blob.len() {
            assert_parsers_agree(&blob[..cut], &format!("{name} cut {cut}"));
        }
        // Every header and directory byte, and a stride of the rest,
        // set to values a length or a mode must reject.
        let directory_end = 20 + enc.lines.len() * 9 + 8;
        for at in (0..directory_end).chain((directory_end..blob.len()).step_by(7)) {
            for v in [0u8, 1, 2, 3, 0x7F, 0xFF] {
                let mut bad = blob.clone();
                bad[at] = v;
                assert_parsers_agree(&bad, &format!("{name} byte {at} = {v:#04x}"));
            }
        }
    }
    // Random twenty-byte headers over a short tail, as the codec
    // proptest `from_bytes_survives_arbitrary_header_fields` draws them.
    let mut state = 0x4EAD_u64;
    for round in 0..20_000 {
        let mut blob = b"DCMX".to_vec();
        blob.extend_from_slice(&(1 + (lcg(&mut state) % 2) as u32).to_le_bytes());
        for _ in 0..3 {
            let field = match lcg(&mut state) % 4 {
                0 => lcg(&mut state) as u32,
                1 => (lcg(&mut state) % 4) as u32,
                2 => u32::MAX - (lcg(&mut state) % 3) as u32,
                _ => (lcg(&mut state) % 70_000) as u32,
            };
            blob.extend_from_slice(&field.to_le_bytes());
        }
        let tail = (lcg(&mut state) % 80) as usize;
        blob.extend((0..tail).map(|_| (lcg(&mut state) % 5) as u8));
        assert_parsers_agree(&blob, &format!("header round {round}"));
    }
}

/// Release-only timing gate (ci.sh "deepcam codec speed"), one thread on
/// a 576×384×8 sample, alternating runs, best of each side; the host's
/// tier throughout, narrowing included. Two ratios, each of which a
/// refactor can lose without failing any other test:
///
/// * `decode_into` against the per-line loop: the lockstep gain rests on
///   pass 1 staying off the chains and pass 2 stepping sixteen of them
///   together. Fails below 1.2× at avx2 (measured 1.27–1.36×); at every
///   other tier the two are one loop, and it prints "skipped".
/// * `decode_into` against the frozen reference, whose first pass is the
///   scalar `decode_code` loop: fails below 3×. The per-line loop alone
///   reads 3.9–4.8× that at avx2; a second pass over the line or a
///   mispredicting loop in it reads 2×.
#[test]
#[ignore = "timing; run in release from scripts/ci.sh"]
fn decode_speed() {
    use std::time::Instant;
    let sample = ClimateGenerator::new(DeepCamConfig {
        width: 576,
        height: 384,
        channels: 8,
        ..DeepCamConfig::default()
    })
    .generate(0);
    let (enc, _) = encode(&sample, &EncoderConfig::default());
    let mut out = vec![F16::ZERO; enc.n_values()];
    let time = |f: &mut dyn FnMut()| {
        let t = Instant::now();
        f();
        t.elapsed().as_secs_f64()
    };
    let (mut new, mut lines, mut old) = (f64::MAX, f64::MAX, f64::MAX);
    for _ in 0..15 {
        new = new.min(time(&mut || {
            decode_into(&enc, Op::Identity, &mut out).unwrap()
        }));
        lines = lines.min(time(&mut || {
            super::decode::decode_lines(&enc.view(), Op::Identity, &mut out).unwrap()
        }));
        old = old.min(time(&mut || {
            reference_decode::decode_into(&enc, Op::Identity, &mut out).unwrap()
        }));
    }
    let melem = enc.n_values() as f64 / 1e6;
    let tier = sciml_simd::active_level();
    println!(
        "deepcam decode_into 576x384x8 at {}: {:.2} ms ({:.0} Melem/s), per-line loop {:.2} ms ({:.0} Melem/s), frozen two-pass {:.2} ms ({:.0} Melem/s); {:.2}x per-line, {:.2}x frozen",
        tier.name(),
        new * 1e3,
        melem / new,
        lines * 1e3,
        melem / lines,
        old * 1e3,
        melem / old,
        lines / new,
        old / new
    );
    assert!(
        old / new >= DECODE_SPEED_FLOOR,
        "decode only {:.2}x the frozen reference (floor {DECODE_SPEED_FLOOR}x)",
        old / new
    );
    if decode_lockstep::tier().is_none() {
        println!("lockstep over per-line floor: skipped at {}", tier.name());
        return;
    }
    assert!(
        lines / new >= LOCKSTEP_SPEED_FLOOR,
        "lockstep decode only {:.2}x the per-line loop at {} (floor {LOCKSTEP_SPEED_FLOOR}x)",
        lines / new,
        tier.name()
    );
}

const DECODE_SPEED_FLOOR: f64 = 3.0;
const LOCKSTEP_SPEED_FLOOR: f64 = 1.2;
