//! gzip baseline benchmarks: the CPU cost of the general-purpose path
//! the paper compares against ("decompression can only be performed on
//! the host CPU"). Ground truth behind the gzip bars of Figs. 10–12.
//!
//! Two payloads, each at the level the loader stores it at: a CosmoFlow
//! FP32 baseline payload at `Default` (what `CosmoGzip` reads) and a
//! DeepCAM blob in the codec's differential encoding at `Fast` (what
//! the store's `EncodingChoice::Auto` deflates on ingest and inflates
//! on every fetch). Emits `BENCH_gzip_baseline.json` with their MB/s
//! and the gzip baseline's whole decode call (inflate + per-voxel op).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use sciml_bench::bench_cosmo_sample;
use sciml_bench::snapshot::write_snapshot;
use sciml_codec::deepcam as dc;
use sciml_codec::Op;
use sciml_compress::{gzip_compress, gzip_decompress, Level};
use sciml_data::deepcam::{ClimateGenerator, DeepCamConfig};
use sciml_data::serialize;
use sciml_half::F16;
use sciml_obs::BenchEntry;
use sciml_pipeline::decoder::CosmoGzip;
use sciml_pipeline::DecoderPlugin;
use std::time::Instant;

/// The end-to-end benchmark's ingest sample (288 × 192 × 8), encoded.
fn deepcam_blob() -> Vec<u8> {
    let sample = ClimateGenerator::new(DeepCamConfig {
        width: 288,
        height: 192,
        channels: 8,
        ..DeepCamConfig::default()
    })
    .generate(0);
    dc::encode(&sample, &dc::EncoderConfig::default())
        .0
        .to_bytes()
}

/// Seconds `f` takes, best of `runs`.
fn best_secs<T>(runs: usize, mut f: impl FnMut() -> T) -> f64 {
    (0..runs)
        .map(|_| {
            let t0 = Instant::now();
            std::hint::black_box(f());
            t0.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

/// MB/s of `f` over `bytes` bytes, best of `runs`.
fn mb_per_s<T>(bytes: usize, runs: usize, f: impl FnMut() -> T) -> f64 {
    bytes as f64 / 1e6 / best_secs(runs, f)
}

fn bench(c: &mut Criterion) {
    let payload = serialize::cosmo_to_payload(&bench_cosmo_sample());
    let gz = gzip_compress(&payload, Level::Default);
    let blob = deepcam_blob();
    let blob_gz = gzip_compress(&blob, Level::Fast);

    // One whole decode call of the gzip baseline — inflate into the
    // thread's scratch, then the per-voxel op over the payload — and
    // the share of it that is inflate.
    let plugin = CosmoGzip { op: Op::Log1p };
    let mut tensor = vec![F16::ZERO; (payload.len() - 24) / 4];
    let decode_s = best_secs(9, || plugin.decode_into(&gz, &mut tensor).expect("decode"));
    let inflate_s = best_secs(9, || gzip_decompress(&gz));

    let entry = |name: &str, value: f64, unit: &str| BenchEntry::new(name.to_string(), value, unit);
    let entries = vec![
        entry("cosmo_payload_bytes", payload.len() as f64, "B"),
        entry(
            "cosmo_gzip_ratio",
            payload.len() as f64 / gz.len() as f64,
            "x",
        ),
        entry(
            "cosmo_compress_default_mb_s",
            mb_per_s(payload.len(), 3, || gzip_compress(&payload, Level::Default)),
            "MB/s",
        ),
        entry(
            "cosmo_compress_fast_mb_s",
            mb_per_s(payload.len(), 3, || gzip_compress(&payload, Level::Fast)),
            "MB/s",
        ),
        entry(
            "cosmo_decompress_mb_s",
            mb_per_s(payload.len(), 9, || gzip_decompress(&gz)),
            "MB/s",
        ),
        entry("cosmo_gzip_baseline_decode_ms", decode_s * 1e3, "ms"),
        entry(
            "cosmo_gzip_baseline_inflate_share",
            inflate_s / decode_s,
            "frac",
        ),
        entry("deepcam_blob_bytes", blob.len() as f64, "B"),
        entry(
            "deepcam_gzip_ratio",
            blob.len() as f64 / blob_gz.len() as f64,
            "x",
        ),
        entry(
            "deepcam_compress_fast_mb_s",
            mb_per_s(blob.len(), 5, || gzip_compress(&blob, Level::Fast)),
            "MB/s",
        ),
        entry(
            "deepcam_decompress_mb_s",
            mb_per_s(blob.len(), 9, || gzip_decompress(&blob_gz)),
            "MB/s",
        ),
    ];
    for e in &entries {
        println!("{:<32} {:>12.2} {}", e.metric, e.value, e.unit);
    }
    match write_snapshot("gzip_baseline", &entries) {
        Ok(path) => println!("gzip snapshot: {}", path.display()),
        Err(e) => eprintln!("gzip snapshot not written: {e}"),
    }

    let mut g = c.benchmark_group("gzip_baseline");
    g.throughput(Throughput::Bytes(payload.len() as u64));
    g.sample_size(10);
    g.bench_function("compress_default", |b| {
        b.iter(|| gzip_compress(&payload, Level::Default))
    });
    g.bench_function("compress_fast", |b| {
        b.iter(|| gzip_compress(&payload, Level::Fast))
    });
    g.bench_function("decompress", |b| b.iter(|| gzip_decompress(&gz).unwrap()));
    g.finish();

    let mut g = c.benchmark_group("gzip_deepcam_blob");
    g.throughput(Throughput::Bytes(blob.len() as u64));
    g.sample_size(10);
    g.bench_function("compress_fast", |b| {
        b.iter(|| gzip_compress(&blob, Level::Fast))
    });
    g.bench_function("decompress", |b| {
        b.iter(|| gzip_decompress(&blob_gz).unwrap())
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
