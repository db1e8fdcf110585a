//! Cross-crate consistency tests: the invariants that tie the
//! subsystems together.

use sciml_codec::cosmoflow as cf;
use sciml_codec::deepcam as dc;
use sciml_codec::Op;
use sciml_data::cosmoflow::{CosmoFlowConfig, UniverseGenerator};
use sciml_data::deepcam::{ClimateGenerator, DeepCamConfig};
use sciml_data::serialize;
use sciml_pipeline::source::{DirSource, MemoryCacheSource, VecSource};
use sciml_pipeline::{PipelineError, SampleSource};
use sciml_platform::gpusim::{decode_cosmo, decode_deepcam, GpuSpec};
use sciml_serve::{ClusterSource, RemoteSource, ServeBuilder};
use sciml_store::{pack_store, EncodingChoice, PackConfig, ShardSource, Stager, StagerConfig};
use std::sync::Arc;

/// The central functional invariant of the GPU offload: simulated-device
/// decode output is bit-identical to the CPU decoder for both codecs and
/// both device generations.
#[test]
fn gpu_sim_matches_cpu_decoders_on_both_codecs() {
    let cs = UniverseGenerator::new(CosmoFlowConfig::test_small()).generate(0);
    let cenc = cf::encode(&cs);
    let ds = ClimateGenerator::new(DeepCamConfig::test_small()).generate(0);
    let (denc, _) = dc::encode(&ds, &dc::EncoderConfig::default());

    for gpu in [GpuSpec::V100, GpuSpec::A100] {
        let (cosmo_dev, _, _) = decode_cosmo(&gpu, &cenc.view(), Op::Log1p).unwrap();
        assert_eq!(
            cosmo_dev,
            cf::decode(&cenc, Op::Log1p).unwrap(),
            "{}",
            gpu.name
        );
        let (cam_dev, _, _) = decode_deepcam(&gpu, &denc.view(), Op::Identity).unwrap();
        assert_eq!(
            cam_dev,
            dc::decode(&denc, Op::Identity).unwrap(),
            "{}",
            gpu.name
        );
    }
}

/// Compression-ratio ordering on the synthetic data: the custom encoding
/// must beat raw decisively; gzip compresses harder but decodes on the
/// CPU only (the paper's trade-off).
#[test]
fn compression_ratio_ordering() {
    let g = UniverseGenerator::new(CosmoFlowConfig::test_small());
    let s = g.generate(1);
    let raw = serialize::cosmo_to_payload(&s);
    let gz = sciml_compress::gzip_compress(&raw, sciml_compress::Level::Default);
    let enc = cf::encode(&s).to_bytes();
    assert!(
        enc.len() * 3 < raw.len(),
        "custom must be >3x smaller than raw"
    );
    assert!(gz.len() < raw.len(), "gzip must compress");
    // The gzip'd payload (the baseline's storage) reconstructs exactly.
    let unzipped = sciml_compress::gzip_decompress(&gz).unwrap();
    assert_eq!(serialize::cosmo_from_payload(&unzipped).unwrap(), s);
}

/// DeepCAM end-to-end through h5lite storage: serialize, encode from the
/// parsed sample, decode, bounded error.
#[test]
fn deepcam_h5_to_codec_chain() {
    let s = ClimateGenerator::new(DeepCamConfig::test_small()).generate(2);
    let h5 = serialize::deepcam_to_h5(&s).unwrap();
    let parsed = serialize::deepcam_from_h5(&h5).unwrap();
    assert_eq!(parsed, s);
    let cfg = dc::EncoderConfig::default();
    let (enc, _) = dc::encode(&parsed, &cfg);
    let out = dc::decode(&enc, Op::Identity).unwrap();
    for (h, &x) in out.iter().zip(&s.data) {
        let denom = x.abs().max(cfg.abs_floor);
        assert!(((h.to_f32() - x) / denom).abs() <= cfg.escape_rel_tol + 2e-3);
    }
}

/// The platform model's workload sizes stay consistent with the real
/// full-scale shapes used by the paper.
#[test]
fn platform_profile_sizes_match_real_sample_shapes() {
    use sciml_platform::WorkloadProfile;
    let cosmo = WorkloadProfile::cosmoflow();
    assert_eq!(cosmo.raw_bytes as usize, 128 * 128 * 128 * 4 * 4);
    let cam = WorkloadProfile::deepcam();
    assert_eq!(cam.raw_bytes as usize, 1152 * 768 * 16 * 4);
    let full = DeepCamConfig::default();
    assert_eq!(cam.raw_bytes as usize, full.values() * 4);
}

/// The `SampleSource` contract, checked on one source: `fetch_into`
/// replaces the contents of a dirty, longer, recycled buffer with
/// exactly what `fetch` returns; `fetch_stored_into` leaves either that
/// (`None`) or the entry as stored, CRC-checked, with the `unpack` that
/// turns it into that — `Some` exactly where `has_stored_form`; each
/// call advances `bytes_read()` by the sample's decoded length, once;
/// an out-of-range index is a typed error.
fn check_source_contract(
    name: &str,
    src: &dyn SampleSource,
    want: &[Vec<u8>],
    has_stored_form: bool,
) {
    assert_eq!(src.len(), want.len(), "{name}");
    let mut buf = Vec::new();
    let mut unpacked = Vec::new();
    for (i, sample) in want.iter().enumerate() {
        buf.clear();
        buf.resize(4096, 0xEE);
        let before = src.bytes_read();
        src.fetch_into(i, &mut buf)
            .unwrap_or_else(|e| panic!("{name}: fetch_into({i}): {e}"));
        assert_eq!(&buf, sample, "{name}: fetch_into({i})");
        assert_eq!(
            src.bytes_read() - before,
            sample.len() as u64,
            "{name}: {i}"
        );
        let before = src.bytes_read();
        assert_eq!(&src.fetch(i).unwrap(), sample, "{name}: fetch({i})");
        assert_eq!(
            src.bytes_read() - before,
            sample.len() as u64,
            "{name}: {i}"
        );

        buf.clear();
        buf.resize(4096, 0xEE);
        let before = src.bytes_read();
        let stored = src
            .fetch_stored_into(i, &mut buf)
            .unwrap_or_else(|e| panic!("{name}: fetch_stored_into({i}): {e}"));
        assert_eq!(stored.is_some(), has_stored_form, "{name}: {i}");
        if let Some(s) = stored {
            assert_eq!(s.raw_len as usize, sample.len(), "{name}: {i}");
            assert_eq!(s.crc32, sciml_compress::crc32::crc32(&buf), "{name}: {i}");
        }
        let got = match stored.and_then(|s| s.unpack) {
            Some(unpack) => {
                unpacked.clear();
                unpacked.resize(4096, 0xEE);
                unpack(&buf, &mut unpacked, sample.len()).unwrap();
                &unpacked
            }
            None => &buf,
        };
        assert_eq!(got, sample, "{name}: fetch_stored_into({i})");
        assert_eq!(
            src.bytes_read() - before,
            sample.len() as u64,
            "{name}: {i}, decoded bytes whatever the stored form"
        );
    }
    for stored_form in [false, true] {
        let before = src.bytes_read();
        let err = if stored_form {
            src.fetch_stored_into(want.len(), &mut buf).map(|_| ())
        } else {
            src.fetch_into(want.len(), &mut buf)
        }
        .expect_err("index == len must be refused");
        assert!(
            matches!(
                err,
                PipelineError::Source(_) | PipelineError::Storage(_) | PipelineError::Remote(_)
            ),
            "{name}: {err:?}"
        );
        assert_eq!(
            src.bytes_read(),
            before,
            "{name}: a refused fetch reads nothing"
        );
    }
}

/// Every source implements the one data method the same way.
#[test]
fn every_source_honours_the_fetch_into_contract() {
    // Mixed lengths, one of them empty, all shorter than the dirty buffer.
    let samples: Vec<Vec<u8>> = (0..12usize)
        .map(|i| {
            (0..(i * 61) % 700)
                .map(|j| (i * 31 + j * 7) as u8)
                .collect()
        })
        .collect();
    let vec_source = || Arc::new(VecSource::new(samples.clone())) as Arc<dyn SampleSource>;
    let root = std::env::temp_dir().join(format!("sciml_contract_{}", std::process::id()));

    let vec = VecSource::new(samples.clone());
    check_source_contract("VecSource", &vec, &samples, false);

    let dir = DirSource::write_all(root.join("dir"), &samples).unwrap();
    check_source_contract("DirSource", &dir, &samples, false);

    let cache = MemoryCacheSource::new(vec_source(), u64::MAX);
    let n = samples.len() as u64;
    check_source_contract("MemoryCacheSource, cold", &cache, &samples, false);
    // Per index one miss then two hits; a refused index is a miss.
    assert_eq!((cache.hits(), cache.misses()), (2 * n, n + 2));
    check_source_contract("MemoryCacheSource, warm", &cache, &samples, false);
    assert_eq!((cache.hits(), cache.misses()), (5 * n, n + 4));

    let pack = PackConfig {
        target_shard_bytes: 1500,
        encoding: EncodingChoice::Auto,
        ..PackConfig::default()
    };
    let manifest = pack_store(&VecSource::new(samples.clone()), &root.join("store"), pack).unwrap();
    assert!(manifest.shards.len() > 1);
    let store = Arc::new(ShardSource::open(root.join("store")).unwrap());
    check_source_contract("ShardSource", &*store, &samples, true);
    // The `Arc<S>` forwarder hands the stored form on, as a trait
    // object too; a cache holds decoded samples and says so.
    let shared: Arc<dyn SampleSource> = store.clone();
    check_source_contract("Arc<ShardSource>", &store, &samples, true);
    check_source_contract("Arc<dyn SampleSource>", &shared, &samples, true);
    let cache = MemoryCacheSource::new(shared.clone(), u64::MAX);
    check_source_contract("MemoryCacheSource over a store", &cache, &samples, false);

    // A staged shard answers from its local copy; a fall-through is the
    // backing's own answer.
    for (name, backing, stage_all, has_stored_form) in [
        ("StagingSource, falling through", vec_source(), false, false),
        (
            "StagingSource, falling through to a store",
            shared,
            false,
            true,
        ),
        ("StagingSource, staged", vec_source(), true, true),
    ] {
        let stager = Stager::new(
            backing,
            manifest.plans(),
            root.join(format!("staged_{stage_all}_{has_stored_form}")),
            StagerConfig::default(),
        )
        .unwrap();
        while stage_all && stager.stage_one().unwrap().is_some() {}
        let src = stager.source();
        check_source_contract(name, &src, &samples, has_stored_form);
        let (local, fell) = (src.local_hits(), src.fallthroughs());
        assert_eq!((local == 0, fell == 0), (!stage_all, stage_all), "{name}");
    }

    let server = ServeBuilder::new()
        .dataset("demo", vec_source())
        .bind("127.0.0.1:0")
        .unwrap();
    let addr = server.local_addr().to_string();
    let remote = RemoteSource::connect(addr.clone(), "demo").unwrap();
    check_source_contract("RemoteSource", &remote, &samples, false);
    let cluster = ClusterSource::connect(addr, "demo").unwrap();
    check_source_contract("ClusterSource", &cluster, &samples, false);
    server.shutdown();
    std::fs::remove_dir_all(&root).ok();
}
