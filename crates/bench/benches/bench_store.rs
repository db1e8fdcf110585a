//! Packed-store benchmarks: per-sample fetch latency of the per-file
//! `DirSource` layout versus the packed `.sshard` layout, over the same
//! dataset on the same disk. The packed layout pays one `open` per
//! shard instead of one per sample — the metadata cost the paper's
//! staging experiments set out to avoid — but unlike the raw per-file
//! read it also CRC-checks every sample it serves. On a warm page
//! cache (the only thing a local microbench can measure) that
//! integrity check dominated while it ran slicing-by-8 (21 of 24 µs),
//! so the snapshot records the standalone CRC cost per sample, and the
//! kernel that produced it, alongside both fetch distributions to keep
//! the layout and integrity components separable.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use sciml_bench::dataset::{DatasetBuilder, EncodedFormat};
use sciml_bench::snapshot::{histogram_entries, write_snapshot};
use sciml_data::cosmoflow::CosmoFlowConfig;
use sciml_obs::{BenchEntry, Histogram};
use sciml_pipeline::source::DirSource;
use sciml_pipeline::SampleSource;
use sciml_store::{pack_store, PackConfig, ShardSource};
use std::time::Instant;

fn bench(c: &mut Criterion) {
    let mut gen_cfg = CosmoFlowConfig::test_small();
    gen_cfg.grid = 24;
    let n = 32usize;
    let blobs = DatasetBuilder::cosmoflow(gen_cfg).build(n, EncodedFormat::Custom);
    let sample_bytes: u64 = blobs.iter().map(|b| b.len() as u64).sum();

    let root = std::env::temp_dir().join(format!("sciml_bench_store_{}", std::process::id()));
    let dir_path = root.join("per_file");
    let store_path = root.join("packed");
    std::fs::create_dir_all(&dir_path).expect("create bench dirs");
    for (i, b) in blobs.iter().enumerate() {
        std::fs::write(dir_path.join(format!("sample_{i:06}.bin")), b).expect("write sample");
    }
    let dir = DirSource::open(&dir_path, n);
    pack_store(
        &dir,
        &store_path,
        PackConfig {
            // Several shards even for this small set, so the bench
            // exercises the manifest lookup too.
            target_shard_bytes: sample_bytes / 4,
            ..PackConfig::default()
        },
    )
    .expect("pack store");
    let packed = ShardSource::open(&store_path).expect("open store");

    let mut g = c.benchmark_group("store_fetch");
    g.sample_size(10);
    g.throughput(Throughput::Bytes(sample_bytes));
    g.bench_function("dir_epoch", |b| {
        b.iter(|| {
            for i in 0..n {
                dir.fetch(i).expect("dir fetch");
            }
        })
    });
    g.bench_function("packed_epoch", |b| {
        b.iter(|| {
            for i in 0..n {
                packed.fetch(i).expect("packed fetch");
            }
        })
    });
    g.finish();

    // Per-fetch latency distributions for the snapshot: a fresh source
    // per pass so the packed path's first-touch shard opens are in the
    // numbers (the "cold fetch" the issue asks to compare).
    let dir_hist = Histogram::new();
    let packed_hist = Histogram::new();
    for _ in 0..5 {
        let dir = DirSource::open(&dir_path, n);
        let packed = ShardSource::open(&store_path).expect("open store");
        for i in 0..n {
            let t0 = Instant::now();
            dir.fetch(i).expect("dir fetch");
            dir_hist.record(t0.elapsed().as_nanos() as u64);
            let t0 = Instant::now();
            packed.fetch(i).expect("packed fetch");
            packed_hist.record(t0.elapsed().as_nanos() as u64);
        }
    }
    let (d, p) = (dir_hist.snapshot(), packed_hist.snapshot());
    let mut entries = histogram_entries("dir_fetch", &d);
    entries.extend(histogram_entries("packed_fetch", &p));
    if p.mean() > 0.0 {
        entries.push(BenchEntry::new(
            "dir_over_packed_mean",
            d.mean() / p.mean(),
            "x",
        ));
    }
    // The integrity component of the packed path, on its own: CRC-32
    // over one representative sample.
    let t0 = Instant::now();
    let crc_iters = 200u32;
    for _ in 0..crc_iters {
        std::hint::black_box(sciml_compress::crc32::crc32(std::hint::black_box(
            &blobs[0],
        )));
    }
    entries.push(BenchEntry::new(
        "crc32_per_sample_ns",
        t0.elapsed().as_nanos() as f64 / crc_iters as f64,
        "ns",
    ));
    // Which kernel produced that number (the snapshot holds scalars, so
    // the name rides in the metric).
    entries.push(BenchEntry::new(
        format!("crc32_kernel/{}", sciml_compress::crc32::kernel_name()),
        1.0,
        "selected",
    ));
    match write_snapshot("store_pack_vs_dir", &entries) {
        Ok(path) => println!("store snapshot: {}", path.display()),
        Err(e) => eprintln!("store snapshot not written: {e}"),
    }

    std::fs::remove_dir_all(&root).ok();
}

criterion_group!(benches, bench);
criterion_main!(benches);
