//! Property tests for both codecs.

use proptest::prelude::*;
use sciml_codec::cosmoflow as cf;
use sciml_codec::deepcam as dc;
use sciml_codec::{CodecError, Op};
use sciml_data::cosmoflow::{CosmoParams, CosmoSample};
use sciml_data::deepcam::DeepCamSample;
use sciml_half::F16;
use sciml_simd::{force, supported_levels, SimdLevel};

/// f32 values hostile to vector kernels: ordinary magnitudes mixed with
/// raw bit patterns (NaN payloads, infinities, subnormals). These flow
/// through RawF32 lines and escape literals, so the decoders see them.
fn hostile_f32() -> impl Strategy<Value = f32> {
    prop_oneof![
        -1000f32..1000f32,
        -1f32..1f32,
        any::<u32>().prop_map(f32::from_bits),
        (0u32..0x0080_0000).prop_map(f32::from_bits), // subnormals
    ]
}

/// DeepCAM sample over [`hostile_f32`] data, widths chosen to leave
/// vector tails (not multiples of 8).
fn deepcam_hostile_sample() -> impl Strategy<Value = DeepCamSample> {
    (4usize..45, 1usize..3, 1usize..3).prop_flat_map(|(w, h, c)| {
        let n = w * h * c;
        prop::collection::vec(hostile_f32(), n..=n).prop_map(move |data| DeepCamSample {
            width: w,
            height: h,
            channels: c,
            data,
            mask: vec![0; w * h],
        })
    })
}

/// Header words that probe overflow: small, arbitrary, and near the
/// top of the range.
fn hostile_u32() -> impl Strategy<Value = u32> {
    prop_oneof![
        any::<u32>(),
        0u32..6,
        (0u32..4).prop_map(|d| u32::MAX - d),
        (0u32..4).prop_map(|d| (1 << 31) + d),
        (0u32..4).prop_map(|d| (1 << 16) + d),
    ]
}

/// Wire length fields that probe `pos + n`: arbitrary, short, and
/// within a blob's length of wrapping.
fn hostile_u64() -> impl Strategy<Value = u64> {
    prop_oneof![
        any::<u64>(),
        0u64..4096,
        (0u64..4096).prop_map(|d| u64::MAX - d),
        (0u64..4096).prop_map(|d| (1 << 32) + d),
    ]
}

/// One of the four fused preprocessing ops.
fn any_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        Just(Op::Identity),
        Just(Op::Log1p),
        (0.01f32..4.0, -100f32..100.0).prop_map(|(scale, offset)| Op::Normalize { scale, offset }),
        (0.01f32..4.0, -10f32..10.0)
            .prop_map(|(scale, offset)| Op::Log1pNormalize { scale, offset }),
    ]
}

/// Arbitrary small CosmoFlow sample (grid 2..6).
fn cosmo_sample() -> impl Strategy<Value = CosmoSample> {
    (2usize..6).prop_flat_map(|grid| {
        let n = grid * grid * grid * 4;
        prop::collection::vec(0u16..500, n..=n).prop_map(move |counts| CosmoSample {
            grid,
            counts,
            label: CosmoParams::MEANS,
        })
    })
}

/// Arbitrary small DeepCAM sample with FP16-range values.
fn deepcam_sample() -> impl Strategy<Value = DeepCamSample> {
    (4usize..40, 1usize..4, 1usize..3).prop_flat_map(|(w, h, c)| {
        let n = w * h * c;
        prop::collection::vec(-1000f32..1000f32, n..=n).prop_map(move |data| DeepCamSample {
            width: w,
            height: h,
            channels: c,
            data,
            mask: vec![0; w * h],
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// CosmoFlow encoding is lossless on counts for arbitrary volumes.
    #[test]
    fn cosmo_lossless_roundtrip(s in cosmo_sample()) {
        let e = cf::encode(&s);
        prop_assert_eq!(cf::decode_counts(&e).unwrap(), s.counts);
    }

    /// CosmoFlow wire format round-trips and re-decodes identically.
    #[test]
    fn cosmo_wire_roundtrip(s in cosmo_sample()) {
        let e = cf::encode(&s);
        let e2 = cf::EncodedCosmo::from_bytes(&e.to_bytes()).unwrap();
        prop_assert_eq!(e, e2);
    }

    /// Fused decode equals baseline preprocessing bit for bit.
    #[test]
    fn cosmo_fusion_equals_baseline(s in cosmo_sample()) {
        let e = cf::encode(&s);
        prop_assert_eq!(
            cf::decode(&e, Op::Log1p).unwrap(),
            cf::baseline_preprocess(&s, Op::Log1p)
        );
    }

    /// DeepCAM reconstruction error respects the escape envelope:
    /// relative error bounded by escape tolerance (vs |x| floored) plus
    /// FP16 rounding.
    #[test]
    fn deepcam_error_envelope(s in deepcam_sample()) {
        let cfg = dc::EncoderConfig::default();
        let (e, _) = dc::encode(&s, &cfg);
        let out = dc::decode(&e, Op::Identity).unwrap();
        for (h, &x) in out.iter().zip(&s.data) {
            let denom = x.abs().max(cfg.abs_floor);
            let rel = ((h.to_f32() - x) / denom).abs();
            prop_assert!(rel <= cfg.escape_rel_tol + 2e-3, "x={x} got {h:?}");
        }
    }

    /// DeepCAM wire format round-trips arbitrary encodings.
    #[test]
    fn deepcam_wire_roundtrip(s in deepcam_sample()) {
        let (e, _) = dc::encode(&s, &dc::EncoderConfig::default());
        let e2 = dc::EncodedDeepCam::from_bytes(&e.to_bytes()).unwrap();
        prop_assert_eq!(
            dc::decode(&e, Op::Identity).unwrap(),
            dc::decode(&e2, Op::Identity).unwrap()
        );
    }

    /// A sample of either codec decodes the same owned and as a view
    /// parsed from its wire bytes.
    #[test]
    fn parsed_view_equals_owned(s in cosmo_sample(), d in deepcam_sample()) {
        let e = cf::encode(&s);
        let want = cf::decode(&e, Op::Log1p).unwrap();
        let bytes = e.to_bytes();
        let view = cf::CosmoView::parse(&bytes).unwrap();
        let mut out = vec![F16::ONE; want.len()];
        cf::decode_view_into(&view, Op::Log1p, &mut out).unwrap();
        prop_assert_eq!(&out, &want);
        prop_assert_eq!(view.label, e.label);
        let (ed, _) = dc::encode(&d, &dc::EncoderConfig::default());
        let want = dc::decode(&ed, Op::Identity).unwrap();
        let bytes = ed.to_bytes();
        let view = dc::DeepCamView::parse(&bytes).unwrap();
        let mut out = vec![F16::ONE; want.len()];
        dc::decode_view_into(&view, Op::Identity, &mut out).unwrap();
        prop_assert_eq!(&out, &want);
        let mut mask = Vec::new();
        view.expand_mask_into(&mut mask);
        prop_assert_eq!(mask, ed.mask);
    }

    /// Parsing arbitrary garbage must never panic.
    #[test]
    fn from_bytes_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
        let _ = cf::EncodedCosmo::from_bytes(&bytes);
        let _ = cf::CosmoView::parse(&bytes);
        let _ = dc::EncodedDeepCam::from_bytes(&bytes);
        let _ = dc::DeepCamView::parse(&bytes);
    }

    /// In-place decode into a dirty recycled buffer is byte-identical
    /// to the allocating decode, for both codecs.
    #[test]
    fn decode_into_equals_decode(s in cosmo_sample(), d in deepcam_sample()) {
        let e = cf::encode(&s);
        let want = cf::decode(&e, Op::Log1p).unwrap();
        let mut out = vec![F16::ONE; want.len()]; // dirty, as if recycled
        cf::decode_into(&e, Op::Log1p, &mut out).unwrap();
        prop_assert_eq!(&out, &want);

        let (ed, _) = dc::encode(&d, &dc::EncoderConfig::default());
        let want = dc::decode(&ed, Op::Identity).unwrap();
        let mut out = vec![F16::ONE; want.len()];
        dc::decode_into(&ed, Op::Identity, &mut out).unwrap();
        prop_assert_eq!(&out, &want);
    }

    /// Wrong-size output slices yield a typed error, never a panic,
    /// and never touch the buffer contents.
    #[test]
    fn decode_into_rejects_wrong_size(
        s in cosmo_sample(),
        d in deepcam_sample(),
        delta in prop_oneof![Just(-1isize), Just(1isize), Just(17isize)],
    ) {
        let e = cf::encode(&s);
        let right = s.counts.len();
        let wrong = (right as isize + delta).max(0) as usize;
        let mut out = vec![F16::ZERO; wrong];
        prop_assert!(matches!(
            cf::decode_into(&e, Op::Log1p, &mut out),
            Err(CodecError::Inconsistent(_))
        ));
        prop_assert!(matches!(
            cf::decode_view_into(&e.view(), Op::Log1p, &mut out),
            Err(CodecError::Inconsistent(_))
        ));

        let (ed, _) = dc::encode(&d, &dc::EncoderConfig::default());
        let right = d.data.len();
        let wrong = (right as isize + delta).max(0) as usize;
        let mut out = vec![F16::ZERO; wrong];
        prop_assert!(matches!(
            dc::decode_into(&ed, Op::Identity, &mut out),
            Err(CodecError::Inconsistent(_))
        ));
    }

    /// Every forced SIMD tier decodes byte-identically to the forced
    /// scalar tier — both codecs, arbitrary fused op, CosmoFlow owned
    /// and from its wire bytes, hostile values (NaN payloads, subnormals,
    /// infinities) and tail-leaving widths. This is the dispatch
    /// layer's core contract: `SCIML_SIMD=scalar` output is the
    /// reference, and no vector tier may deviate from it by a bit.
    #[test]
    fn simd_tiers_decode_bit_identically(
        s in cosmo_sample(),
        d in deepcam_hostile_sample(),
        op in any_op(),
    ) {
        let e = cf::encode(&s);
        let bytes = e.to_bytes();
        let (ed, _) = dc::encode(&d, &dc::EncoderConfig::default());
        let (want_c, want_d) = {
            let _g = force(Some(SimdLevel::Scalar));
            (cf::decode(&e, op).unwrap(), dc::decode(&ed, op).unwrap())
        };
        for lvl in supported_levels() {
            let _g = force(Some(lvl));
            prop_assert_eq!(&cf::decode(&e, op).unwrap(), &want_c, "cosmo tier {:?}", lvl);
            prop_assert_eq!(&dc::decode(&ed, op).unwrap(), &want_d, "deepcam tier {:?}", lvl);
            let mut out = vec![F16::ONE; want_c.len()];
            cf::decode_view_into(&cf::CosmoView::parse(&bytes).unwrap(), op, &mut out).unwrap();
            prop_assert_eq!(&out, &want_c, "cosmo parsed view tier {:?}", lvl);
        }
    }

    /// Header dimensions and wire length fields overwritten with
    /// arbitrary values — these bytes arrive from a server — parse to a
    /// typed error or to a sample whose size the decoder agrees with,
    /// never to a panic or a wrapped size.
    #[test]
    fn from_bytes_survives_arbitrary_header_fields(
        s in cosmo_sample(),
        d in deepcam_sample(),
        dims in prop::collection::vec(hostile_u32(), 3..=3),
        lens in prop::collection::vec(hostile_u64(), 2..=2),
        fields in prop::collection::vec(hostile_u32(), 4..=4),
        which in 0usize..8,
    ) {
        let (ed, _) = dc::encode(&d, &dc::EncoderConfig::default());
        let mut blob = ed.to_bytes();
        let payload_len_at = 20 + 9 * ed.lines.len();
        let mask_len_at = payload_len_at + 8 + ed.payload.len();
        if which & 1 != 0 {
            for (i, v) in dims.iter().enumerate() {
                blob[8 + 4 * i..12 + 4 * i].copy_from_slice(&v.to_le_bytes());
            }
        }
        if which & 2 != 0 {
            blob[payload_len_at..payload_len_at + 8].copy_from_slice(&lens[0].to_le_bytes());
        }
        if which & 4 != 0 {
            blob[mask_len_at..mask_len_at + 8].copy_from_slice(&lens[1].to_le_bytes());
        }
        // The borrowed parser gives the owned one's answer.
        let owned = dc::EncodedDeepCam::from_bytes(&blob);
        match dc::DeepCamView::parse(&blob) {
            Ok(view) => {
                let parsed = owned.as_ref().expect("view parsed");
                prop_assert_eq!(view.n_values(), parsed.n_values());
                let mut mask = Vec::new();
                view.expand_mask_into(&mut mask);
                prop_assert_eq!(&mask, &parsed.mask);
            }
            Err(e) => prop_assert_eq!(owned.as_ref().err(), Some(&e)),
        }
        match owned {
            Ok(parsed) => {
                prop_assert!(parsed.n_values() <= 1 << 30);
                prop_assert_eq!(parsed.n_values(), parsed.n_lines() * parsed.width as usize);
                if parsed.n_values() != 0 {
                    prop_assert!(dc::decode_into(&parsed, Op::Identity, &mut []).is_err());
                }
            }
            Err(e) => prop_assert!(which != 0, "untouched blob rejected: {}", e),
        }

        // CosmoFlow: grid, chunk count, and the first chunk's voxel and
        // group counts (offsets 8, 28, 32, 37).
        let mut blob = cf::encode(&s).to_bytes();
        for (j, (at, v)) in [8usize, 28, 32, 37].into_iter().zip(&fields).enumerate() {
            if which & (1 << (j % 3)) != 0 {
                blob[at..at + 4].copy_from_slice(&v.to_le_bytes());
            }
        }
        // The borrowed parser gives the owned one's answer; a bad key
        // is the one thing it leaves to the decoder.
        let owned = cf::EncodedCosmo::from_bytes(&blob);
        match (cf::CosmoView::parse(&blob), &owned) {
            (Ok(view), Ok(parsed)) => prop_assert_eq!(view.n_values(), parsed.voxels() * 4),
            (Ok(view), Err(e)) => {
                let mut out = vec![F16::ZERO; view.n_values()];
                prop_assert_eq!(cf::decode_view_into(&view, Op::Log1p, &mut out), Err(e.clone()));
            }
            (Err(e), _) => prop_assert_eq!(owned.as_ref().err(), Some(&e)),
        }
        if let Ok(parsed) = owned {
            prop_assert!(parsed.voxels() != 0, "a sample of no voxels parsed");
            prop_assert!(cf::decode_into(&parsed, Op::Log1p, &mut []).is_err());
        }
    }

    /// Constant volumes compress to almost nothing in both codecs.
    #[test]
    fn constant_data_compresses_hard(v in 0u16..100, w in 8usize..64) {
        let s = CosmoSample {
            grid: 4,
            counts: vec![v; 4 * 4 * 4 * 4],
            label: CosmoParams::MEANS,
        };
        let e = cf::encode(&s);
        prop_assert!(e.compression_ratio() > 5.0);

        let d = DeepCamSample {
            width: w,
            height: 2,
            channels: 1,
            data: vec![1.5; w * 2],
            mask: vec![0; w * 2],
        };
        let (ed, st) = dc::encode(&d, &dc::EncoderConfig::default());
        prop_assert_eq!(st.constant_lines, 2);
        prop_assert!(ed.payload.len() <= 8);
    }
}
