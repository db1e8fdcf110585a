//! Cross-crate consistency tests: the invariants that tie the
//! subsystems together.

use sciml_codec::cosmoflow as cf;
use sciml_codec::deepcam as dc;
use sciml_codec::Op;
use sciml_data::cosmoflow::{CosmoFlowConfig, UniverseGenerator};
use sciml_data::deepcam::{ClimateGenerator, DeepCamConfig};
use sciml_data::serialize;
use sciml_data::tfrecord::{Compression, TfRecordReader, TfRecordWriter};
use sciml_gpusim::{decode_cosmo, decode_deepcam, Gpu, GpuSpec};
use sciml_pipeline::source::{DirSource, MemoryCacheSource, VecSource};
use sciml_pipeline::{PipelineError, SampleSource};
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

    for spec in [GpuSpec::V100, GpuSpec::A100] {
        let gpu = Gpu::new(spec);
        let (cosmo_dev, _, _) = decode_cosmo(&gpu, &cenc, Op::Log1p).unwrap();
        assert_eq!(
            cosmo_dev,
            cf::decode(&cenc, Op::Log1p).unwrap(),
            "{}",
            spec.name
        );
        let (cam_dev, _, _) = decode_deepcam(&gpu, &denc, Op::Identity).unwrap();
        assert_eq!(
            cam_dev,
            dc::decode(&denc, Op::Identity).unwrap(),
            "{}",
            spec.name
        );
    }
}

/// TFRecord + gzip + codec round-trip: samples written as gzip-compressed
/// TFRecords (the paper's baseline storage) reconstruct exactly.
#[test]
fn gzip_tfrecord_storage_roundtrip() {
    let g = UniverseGenerator::new(CosmoFlowConfig::test_small());
    let samples: Vec<_> = (0..3).map(|i| g.generate(i)).collect();

    let mut w = TfRecordWriter::new();
    for s in &samples {
        w.write_record(&serialize::cosmo_to_payload(s));
    }
    let file = w.finish(Compression::Gzip);

    let mut r = TfRecordReader::new(&file, Compression::Gzip).unwrap();
    let records = r.read_all().unwrap();
    assert_eq!(records.len(), 3);
    for (rec, orig) in records.iter().zip(&samples) {
        assert_eq!(&serialize::cosmo_from_payload(rec).unwrap(), orig);
    }
}

/// The encoded wire formats survive TFRecord framing too (staged
/// encoded datasets in the optimized path).
#[test]
fn encoded_samples_survive_tfrecord_framing() {
    let g = UniverseGenerator::new(CosmoFlowConfig::test_small());
    let s = g.generate(5);
    let enc = cf::encode(&s);

    let mut w = TfRecordWriter::new();
    w.write_record(&enc.to_bytes());
    let file = w.finish(Compression::None);
    let mut r = TfRecordReader::new(&file, Compression::None).unwrap();
    let rec = r.next_record().unwrap().unwrap();
    let enc2 = cf::EncodedCosmo::from_bytes(&rec).unwrap();
    assert_eq!(enc, enc2);
    assert_eq!(cf::decode_counts(&enc2).unwrap(), s.counts);
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
/// exactly what `fetch` returns; each call advances `bytes_read()` by
/// the sample's length, once; an out-of-range index is a typed error.
fn check_source_contract(name: &str, src: &dyn SampleSource, want: &[Vec<u8>]) {
    assert_eq!(src.len(), want.len(), "{name}");
    let mut buf = Vec::new();
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
    }
    let before = src.bytes_read();
    let err = src
        .fetch_into(want.len(), &mut buf)
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

    check_source_contract("VecSource", &VecSource::new(samples.clone()), &samples);

    let dir = DirSource::write_all(root.join("dir"), &samples).unwrap();
    check_source_contract("DirSource", &dir, &samples);

    let cache = MemoryCacheSource::new(vec_source(), u64::MAX);
    let n = samples.len() as u64;
    check_source_contract("MemoryCacheSource, cold", &cache, &samples);
    // Per index one miss then one hit; the refused index is a miss.
    assert_eq!((cache.hits(), cache.misses()), (n, n + 1));
    check_source_contract("MemoryCacheSource, warm", &cache, &samples);
    assert_eq!((cache.hits(), cache.misses()), (3 * n, n + 2));

    let pack = PackConfig {
        target_shard_bytes: 1500,
        encoding: EncodingChoice::Auto,
        ..PackConfig::default()
    };
    let manifest = pack_store(&VecSource::new(samples.clone()), &root.join("store"), pack).unwrap();
    assert!(manifest.shards.len() > 1);
    let store = ShardSource::open(root.join("store")).unwrap();
    check_source_contract("ShardSource", &store, &samples);

    for (name, stage_all) in [
        ("StagingSource, falling through", false),
        ("StagingSource, staged", true),
    ] {
        let stager = Stager::new(
            vec_source(),
            manifest.plans(),
            root.join(format!("staged_{stage_all}")),
            StagerConfig::default(),
        )
        .unwrap();
        while stage_all && stager.stage_one().unwrap().is_some() {}
        let src = stager.source();
        check_source_contract(name, &src, &samples);
        let (local, fell) = (src.local_hits(), src.fallthroughs());
        assert_eq!((local == 0, fell == 0), (!stage_all, stage_all), "{name}");
    }

    let server = ServeBuilder::new()
        .dataset("demo", vec_source())
        .bind("127.0.0.1:0")
        .unwrap();
    let addr = server.local_addr().to_string();
    let remote = RemoteSource::connect(addr.clone(), "demo").unwrap();
    check_source_contract("RemoteSource", &remote, &samples);
    let cluster = ClusterSource::connect(addr, "demo").unwrap();
    check_source_contract("ClusterSource", &cluster, &samples);
    server.shutdown();
    std::fs::remove_dir_all(&root).ok();
}
