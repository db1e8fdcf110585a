//! Property tests for the data layer: generator invariants over random
//! configurations, and container robustness.

use proptest::prelude::*;
use sciml_data::cosmoflow::{sample_stats, CosmoFlowConfig, CosmoParams, UniverseGenerator};
use sciml_data::deepcam::{ClimateGenerator, DeepCamConfig};
use sciml_data::h5lite::{self, Dataset};
use sciml_data::serialize;

fn cosmo_cfgs() -> impl Strategy<Value = CosmoFlowConfig> {
    (8usize..20, 2usize..20, 20f32..100.0, 0u16..3, any::<u64>()).prop_map(
        |(grid, halos, mass_scale, background, seed)| CosmoFlowConfig {
            grid,
            halos,
            mass_scale,
            background,
            seed,
        },
    )
}

fn cam_cfgs() -> impl Strategy<Value = DeepCamConfig> {
    (
        16usize..64,
        8usize..32,
        1usize..4,
        0usize..3,
        0usize..2,
        any::<u64>(),
    )
        .prop_map(
            |(width, height, channels, cyclones, rivers, seed)| DeepCamConfig {
                width,
                height,
                channels,
                cyclones,
                rivers,
                noise: 2.5e-3,
                seed,
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Generation is deterministic and shape-correct for any config.
    #[test]
    fn cosmo_generator_invariants(cfg in cosmo_cfgs(), idx in 0u64..50) {
        let g = UniverseGenerator::new(cfg.clone());
        let s = g.generate(idx);
        prop_assert_eq!(s.counts.len(), cfg.voxels() * 4);
        prop_assert_eq!(g.generate(idx), s.clone());
        // Labels stay inside the ±30 % band.
        for (v, m) in s.label.as_array().iter().zip(CosmoParams::MEANS.as_array()) {
            prop_assert!(*v >= m * 0.699 && *v <= m * 1.301);
        }
        // Unique values are always a tiny fraction of the data.
        let stats = sample_stats(&s);
        prop_assert!(stats.unique_values * 10 < s.counts.len().max(100));
        prop_assert!(stats.unique_groups <= s.voxels());
    }

    /// Serialization round-trips any generated universe.
    #[test]
    fn cosmo_payload_roundtrip(cfg in cosmo_cfgs(), idx in 0u64..10) {
        let s = UniverseGenerator::new(cfg).generate(idx);
        let p = serialize::cosmo_to_payload(&s);
        prop_assert_eq!(serialize::cosmo_from_payload(&p).unwrap(), s);
    }

    /// Climate generator: deterministic, shape-correct, x smoother than y
    /// for every channel of every config.
    #[test]
    fn deepcam_generator_invariants(cfg in cam_cfgs(), idx in 0u64..20) {
        let g = ClimateGenerator::new(cfg.clone());
        let s = g.generate(idx);
        prop_assert_eq!(s.data.len(), cfg.values());
        prop_assert_eq!(s.mask.len(), cfg.pixels());
        prop_assert_eq!(g.generate(idx), s.clone());
        prop_assert!(s.data.iter().all(|v| v.is_finite()));
        prop_assert!(s.mask.iter().all(|&m| m <= 2));
    }

    /// DeepCAM h5lite round-trips any generated sample.
    #[test]
    fn deepcam_h5_roundtrip(cfg in cam_cfgs(), idx in 0u64..5) {
        let s = ClimateGenerator::new(cfg).generate(idx);
        let bytes = serialize::deepcam_to_h5(&s).unwrap();
        prop_assert_eq!(serialize::deepcam_from_h5(&bytes).unwrap(), s);
    }

    /// h5lite, and the readers under both baseline layouts, never panic
    /// on arbitrary bytes: each gives a value or a typed error. The bytes
    /// also go in behind each layout's magic, so that a header is read.
    #[test]
    fn h5lite_read_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..300)) {
        let _ = h5lite::read(&bytes);
        let _ = serialize::deepcam_from_h5(&bytes);
        let _ = serialize::cosmo_from_payload(&bytes);
        let behind = |magic: &[u8]| [magic, &bytes[..]].concat();
        let _ = h5lite::read(&behind(b"H5LT\x01\x00"));
        let _ = serialize::deepcam_from_h5(&behind(b"H5LT\x01\x00"));
        let _ = serialize::cosmo_from_payload(&behind(b"CFSM"));
    }

    /// h5lite round-trips arbitrary dataset collections.
    #[test]
    fn h5lite_roundtrip(
        floats in prop::collection::vec(-1e6f32..1e6, 1..64),
        words in prop::collection::vec(any::<u16>(), 1..64),
    ) {
        let ds = vec![
            Dataset::from_f32("f", &[floats.len() as u64], &floats),
            Dataset::from_u16("u", &[words.len() as u64], &words),
        ];
        let bytes = h5lite::write(&ds).unwrap();
        let back = h5lite::read(&bytes).unwrap();
        prop_assert_eq!(back, ds);
    }
}
