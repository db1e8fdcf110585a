//! Property tests for the loading pipeline: exactly-once delivery and
//! correct batching must hold for arbitrary thread counts, batch sizes,
//! prefetch depths and epoch counts.

use proptest::prelude::*;
use sciml_codec::cosmoflow as cf;
use sciml_codec::deepcam as dc;
use sciml_codec::Op;
use sciml_data::cosmoflow::{CosmoFlowConfig, UniverseGenerator};
use sciml_data::deepcam::{ClimateGenerator, DeepCamConfig};
use sciml_data::serialize;
use sciml_half::F16;
use sciml_pipeline::decoder::{
    CosmoBaseline, CosmoGzip, CosmoPluginCpu, DeepCamBaseline, DeepCamGzip, DeepCamPluginCpu,
};
use sciml_pipeline::source::VecSource;
use sciml_pipeline::{DecoderPlugin, Pipeline, PipelineConfig};
use std::sync::Arc;

/// `decode_into` over a recycled (dirty) slot must leave exactly what
/// `decode` returns: every element written, same label.
fn assert_decode_into_is_decode(plugin: &dyn DecoderPlugin, blob: &[u8]) -> Vec<F16> {
    let want = plugin.decode(blob).unwrap();
    let mut out = vec![F16::ONE; want.data.len()];
    let label = plugin.decode_into(blob, &mut out).unwrap();
    // Bits, not `==`: planted NaNs must land where `decode` puts them.
    let bits = |d: &[F16]| d.iter().map(|h| h.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&out), bits(&want.data), "{}", plugin.name());
    assert_eq!(label, want.label, "{}", plugin.name());
    want.data
}

fn tiny_blobs(n: usize) -> Vec<Vec<u8>> {
    let cfg = CosmoFlowConfig {
        grid: 6,
        halos: 3,
        mass_scale: 30.0,
        background: 1,
        seed: 5,
    };
    let g = UniverseGenerator::new(cfg);
    (0..n as u64)
        .map(|i| cf::encode(&g.generate(i)).to_bytes())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// All six plugins, arbitrary generator seeds, sample shapes that
    /// leave vector tails. The two DeepCAM baselines run every operator
    /// over data with NaN and ±∞ planted in it, so every arm of
    /// `Op::narrow_into` is reached through a plugin and held to the
    /// per-element definition.
    #[test]
    fn every_plugin_decodes_into_a_dirty_slot_what_decode_returns(
        seed in any::<u64>(),
        index in 0u64..1000,
        grid in 3usize..9,
        width in 5usize..70,
        scale in 0.01f32..4.0,
        offset in -10f32..300.0,
        planted in prop::collection::vec((any::<usize>(), 0usize..4), 0..6),
    ) {
        let op = Op::Log1p;
        let s = UniverseGenerator::new(CosmoFlowConfig {
            grid,
            halos: 4,
            mass_scale: 60.0,
            background: 1,
            seed,
        })
        .generate(index);
        let raw = serialize::cosmo_to_payload(&s);
        let enc = cf::encode(&s).to_bytes();
        let base = assert_decode_into_is_decode(&CosmoBaseline { op }, &raw);
        let gz = CosmoGzip::compress_payload(&raw);
        prop_assert_eq!(&assert_decode_into_is_decode(&CosmoGzip { op }, &gz), &base);
        prop_assert_eq!(&assert_decode_into_is_decode(&CosmoPluginCpu { op }, &enc), &base);

        let mut d = ClimateGenerator::new(DeepCamConfig {
            width,
            height: 3,
            channels: 2,
            seed,
            ..DeepCamConfig::test_small()
        })
        .generate(index);
        let (enc, _) = dc::encode(&d, &dc::EncoderConfig::default());
        let enc = enc.to_bytes();
        for op in [Op::Identity, Op::Normalize { scale, offset }] {
            assert_decode_into_is_decode(&DeepCamPluginCpu { op }, &enc);
        }
        for (at, what) in planted {
            let at = at % d.data.len();
            d.data[at] = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -1.0][what];
        }
        let h5 = serialize::deepcam_to_h5(&d).unwrap();
        let h5_gz = sciml_compress::gzip_compress(&h5, sciml_compress::Level::Fast);
        for op in [
            Op::Identity,
            Op::Normalize { scale, offset },
            Op::Log1p,
            Op::Log1pNormalize { scale, offset },
        ] {
            let base = assert_decode_into_is_decode(&DeepCamBaseline { op }, &h5);
            let gzip = assert_decode_into_is_decode(&DeepCamGzip { op }, &h5_gz);
            for ((b, g), &v) in base.iter().zip(&gzip).zip(&d.data) {
                let want = F16::from_f32(op.apply(v));
                prop_assert!(
                    b.to_bits() == g.to_bits()
                        && (b.to_bits() == want.to_bits() || (b.is_nan() && want.is_nan())),
                    "{:?} of {:e}: baseline {:?}, gzip {:?}, want {:?}", op, v, b, g, want
                );
            }
        }
    }

    /// Arbitrary bytes through both uncompressed baselines, owned and
    /// into a slot: a typed error or a value, never a panic. The bytes
    /// also go in behind each layout's magic (and a small `CFSM` grid,
    /// cut to its length where they are longer), so that a header is
    /// read and values are checked.
    #[test]
    fn the_plain_baselines_survive_arbitrary_bytes(
        bytes in prop::collection::vec(any::<u8>(), 0..400),
        grid in 0u32..3,
        slot in 0usize..64,
    ) {
        let mut out = vec![F16::ONE; slot];
        let body = &bytes[..bytes.len().min(16 + 16 * grid.pow(3) as usize)];
        let cosmo = [&b"CFSM"[..], &grid.to_le_bytes(), body].concat();
        let deepcam = [&b"H5LT\x01\x00"[..], &bytes].concat();
        let plugins: [(&dyn DecoderPlugin, &[u8]); 4] = [
            (&CosmoBaseline { op: Op::Log1p }, &bytes),
            (&CosmoBaseline { op: Op::Log1p }, &cosmo),
            (&DeepCamBaseline { op: Op::Identity }, &bytes),
            (&DeepCamBaseline { op: Op::Identity }, &deepcam),
        ];
        for (plugin, input) in plugins {
            if let Ok(d) = plugin.decode(input) {
                prop_assert!(d.data.len() <= input.len() / 4);
            }
            let _ = plugin.decode_into(input, &mut out);
        }
    }

    #[test]
    fn exactly_once_under_arbitrary_configs(
        n in 1usize..20,
        batch in 1usize..7,
        readers in 1usize..5,
        decoders in 1usize..5,
        prefetch in 1usize..6,
        epochs in 1usize..4,
        drop_remainder in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let p = Pipeline::launch(
            Arc::new(VecSource::new(tiny_blobs(n))),
            Arc::new(CosmoPluginCpu { op: Op::Log1p }),
            PipelineConfig {
                batch_size: batch,
                reader_threads: readers,
                decode_threads: decoders,
                prefetch,
                epochs,
                seed,
                drop_remainder,
                pool_capacity: None,
            },
        )
        .unwrap();
        let (batches, stats) = p.collect_all().unwrap();

        // Every fetched sample was fetched exactly once per epoch.
        prop_assert_eq!(stats.sample_count() as usize, n * epochs);

        for epoch in 0..epochs {
            let mut seen: Vec<usize> = batches
                .iter()
                .filter(|b| b.epoch == epoch)
                .flat_map(|b| b.indices.iter().copied())
                .collect();
            seen.sort_unstable();
            if drop_remainder {
                // Only full batches are delivered; each index at most once.
                prop_assert!(seen.len() <= n);
                prop_assert!(seen.windows(2).all(|w| w[0] != w[1]));
                prop_assert_eq!(seen.len() % batch, 0);
            } else {
                prop_assert_eq!(&seen, &(0..n).collect::<Vec<_>>());
            }
        }

        // Every batch is internally consistent.
        for b in &batches {
            prop_assert!(b.len() <= batch);
            prop_assert_eq!(b.data.len(), b.len() * b.sample_len);
            prop_assert_eq!(b.indices.len(), b.len());
            prop_assert_eq!(b.labels.len(), b.len());
        }
    }

    #[test]
    fn sample_payloads_are_correct_regardless_of_arrival_order(
        readers in 1usize..5,
        decoders in 1usize..5,
        seed in any::<u64>(),
    ) {
        let n = 8;
        let blobs = tiny_blobs(n);
        // Ground truth decodes.
        let expect: Vec<Vec<sciml_half::F16>> = blobs
            .iter()
            .map(|b| {
                let enc = cf::EncodedCosmo::from_bytes(b).unwrap();
                cf::decode(&enc, Op::Log1p).unwrap()
            })
            .collect();
        let p = Pipeline::launch(
            Arc::new(VecSource::new(blobs)),
            Arc::new(CosmoPluginCpu { op: Op::Log1p }),
            PipelineConfig {
                batch_size: 3,
                reader_threads: readers,
                decode_threads: decoders,
                seed,
                ..Default::default()
            },
        )
        .unwrap();
        let (batches, _) = p.collect_all().unwrap();
        for b in &batches {
            for (i, &idx) in b.indices.iter().enumerate() {
                prop_assert_eq!(b.sample(i), &expect[idx][..], "sample {}", idx);
            }
        }
    }
}
