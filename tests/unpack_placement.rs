//! Where a stored entry is unpacked: a reader thread reads it and
//! checks its CRC, a decode thread inflates it. Pipelines over packed
//! stores of every encoding deliver what a direct fetch and decode
//! deliver; an entry that lies under a valid CRC ends the run with the
//! store's typed error from the decode thread; and, in the root speed
//! floors (release-only, from `scripts/ci.sh`), a second decode thread
//! makes a gzip store read faster behind one reader.

use sciml_compress::crc32::crc32;
use sciml_compress::Level;
use sciml_half::F16;
use sciml_obs::sampler::{pipeline_stages, PipelineSampler, SamplerConfig};
use sciml_obs::Telemetry;
use sciml_pipeline::source::VecSource;
use sciml_pipeline::{
    DecodedSample, DecoderPlugin, Label, Pipeline, PipelineConfig, PipelineError, SampleSource,
};
use sciml_repro::control::{low_ratio_samples, InflateControl, CONTROL_FLOOR};
use sciml_simd::speed::{floors_controlled, Control, Row, Shape};
use sciml_store::{
    pack_store, write_shard, EncodingChoice, PackConfig, PayloadEncoding, ShardSource, StoreError,
    StoreManifest, StoredSample,
};
use std::path::PathBuf;
use std::sync::Arc;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "sciml_placement_{tag}_{}_{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// One F16 a byte: cheap, total, and any changed byte shows.
struct BytesPlugin;

impl DecoderPlugin for BytesPlugin {
    fn decode(&self, bytes: &[u8]) -> sciml_pipeline::Result<DecodedSample> {
        let mut data = vec![F16::ZERO; bytes.len()];
        let label = self.decode_into(bytes, &mut data)?;
        Ok(DecodedSample { data, label })
    }

    fn decode_into(&self, bytes: &[u8], out: &mut [F16]) -> sciml_pipeline::Result<Label> {
        if bytes.len() != out.len() {
            return Err(PipelineError::Config("sample length changed"));
        }
        for (o, &b) in out.iter_mut().zip(bytes) {
            *o = F16::from_f32(f32::from(b));
        }
        Ok(Label::Cosmo([bytes.len() as f32; 4]))
    }

    fn name(&self) -> &'static str {
        "bytes"
    }
}

/// Equal-length samples of three kinds, so that `Auto` keeps some raw
/// and compresses the rest: a byte ramp, long runs, and noise.
fn mixed_samples(n: usize, len: usize) -> Vec<Vec<u8>> {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    (0..n)
        .map(|i| {
            (0..len)
                .map(|j| match i % 3 {
                    0 => (i + j / 3) as u8,
                    1 => (i * 17 + j / 400) as u8,
                    _ => {
                        x = x
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        (x >> 56) as u8
                    }
                })
                .collect()
        })
        .collect()
}

#[test]
fn pipelines_over_every_encoding_deliver_the_directly_decoded_samples() {
    const N: usize = 12;
    const EPOCHS: usize = 3;
    let samples = mixed_samples(N, 6000);
    let total_bytes: u64 = samples.iter().map(|s| s.len() as u64).sum();
    for encoding in [
        EncodingChoice::Raw,
        EncodingChoice::Gzip,
        EncodingChoice::Auto,
    ] {
        let dir = tmp_dir(encoding.name());
        let pack = PackConfig {
            target_shard_bytes: 20_000,
            encoding,
            level: Level::Fast,
        };
        let manifest = pack_store(&VecSource::new(samples.clone()), &dir, pack).unwrap();
        assert!(manifest.shards.len() > 1);

        // What a direct fetch and decode deliver, and how many entries
        // are stored in a form that needs unpacking.
        let direct = ShardSource::open(&dir).unwrap();
        let mut buf = Vec::new();
        let mut packed_entries = 0;
        let want: Vec<DecodedSample> = (0..N)
            .map(|i| {
                let stored = direct.fetch_stored_into(i, &mut buf).unwrap().unwrap();
                packed_entries += u64::from(stored.unpack.is_some());
                let fetched = direct.fetch(i).unwrap();
                assert_eq!(fetched, samples[i], "{encoding}: fetch({i})");
                BytesPlugin.decode(&fetched).unwrap()
            })
            .collect();
        match encoding {
            EncodingChoice::Raw => assert_eq!(packed_entries, 0),
            EncodingChoice::Auto => assert!((1..N as u64).contains(&packed_entries)),
            EncodingChoice::Gzip => assert_eq!(packed_entries, N as u64),
        }

        for (readers, decoders) in [(1, 1), (1, 2), (1, 4), (2, 1), (2, 2), (2, 4)] {
            let what = format!("{encoding}, {readers} readers, {decoders} decoders");
            let store = Arc::new(ShardSource::open(&dir).unwrap());
            let tel = Telemetry::disabled();
            let cfg = PipelineConfig {
                batch_size: 5,
                reader_threads: readers,
                decode_threads: decoders,
                epochs: EPOCHS,
                seed: 20220530,
                ..PipelineConfig::default()
            };
            let p = Pipeline::launch_with(store.clone(), Arc::new(BytesPlugin), cfg, tel.clone())
                .unwrap();
            let pool = p.pool();
            let (batches, stats) = p.collect_all().unwrap();

            for epoch in 0..EPOCHS {
                let mut seen: Vec<usize> = batches
                    .iter()
                    .filter(|b| b.epoch == epoch)
                    .flat_map(|b| b.indices.iter().copied())
                    .collect();
                seen.sort_unstable();
                assert_eq!(seen, (0..N).collect::<Vec<_>>(), "{what}: epoch {epoch}");
            }
            for b in &batches {
                for (slot, &idx) in b.indices.iter().enumerate() {
                    assert!(b.sample(slot) == want[idx].data, "{what}: sample {idx}");
                    assert_eq!(b.labels[slot], want[idx].label, "{what}: label {idx}");
                }
            }

            // Decoded bytes, whatever the stored form; one unpack per
            // entry that needed one; and no buffer checked out for it.
            let fetched = (EPOCHS * N) as u64;
            assert_eq!(stats.byte_count(), EPOCHS as u64 * total_bytes, "{what}");
            assert_eq!(store.bytes_read(), EPOCHS as u64 * total_bytes, "{what}");
            assert_eq!(stats.unpack_ns.count(), EPOCHS as u64 * packed_entries);
            assert_eq!(stats.fetch_ns.count(), fetched, "{what}");
            assert_eq!(stats.decode_ns.count(), fetched, "{what}");
            assert_eq!(
                pool.hits() + pool.misses(),
                fetched + batches.len() as u64,
                "{what}: one fetch buffer a sample, one tensor a batch"
            );
            // `collect_all` holds every batch, so each tensor is new;
            // fetch buffers alive at once are one a reader, the queue's
            // (at most one a decoder) and one a decoder.
            let in_flight = (batches.len() + readers + 2 * decoders) as u64;
            assert!(
                pool.misses() <= in_flight,
                "{what}: {} misses",
                pool.misses()
            );
            let snap = tel.registry.snapshot();
            assert_eq!(snap.counter("pipeline.fetch_errors"), 0, "{what}");
            assert_eq!(snap.counter("pipeline.decode_errors"), 0, "{what}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// A one-shard store of `entries` exactly as given.
fn store_of(tag: &str, entries: &[StoredSample]) -> PathBuf {
    let dir = tmp_dir(tag);
    std::fs::create_dir_all(&dir).unwrap();
    let meta = write_shard(&dir, 0, entries, 0, EncodingChoice::Auto).unwrap();
    StoreManifest { shards: vec![meta] }.write_to(&dir).unwrap();
    dir
}

fn entry(encoding: PayloadEncoding, raw_len: u32, stored: Vec<u8>) -> StoredSample {
    StoredSample {
        encoding: encoding.as_byte(),
        raw_len,
        crc32: crc32(&stored),
        stored,
    }
}

#[test]
fn entries_that_lie_under_a_valid_crc_end_the_run_with_the_stores_error() {
    const LEN: usize = 4096;
    let good: Vec<StoredSample> = mixed_samples(5, LEN)
        .into_iter()
        .map(|s| sciml_store::encode_entry(s, EncodingChoice::Gzip, Level::Fast).unwrap())
        .collect();
    let gz = sciml_compress::gzip_compress(&vec![7u8; LEN], Level::Fast);
    let mut corrupt_body = gz.clone();
    corrupt_body[gz.len() / 2] ^= 0x10;
    let len = LEN as u32;
    let hostile = [
        (
            "corrupt gzip body",
            entry(PayloadEncoding::Gzip, len, corrupt_body),
        ),
        (
            "gzip longer than raw_len",
            entry(PayloadEncoding::Gzip, len - 1, gz.clone()),
        ),
        (
            "gzip shorter than raw_len",
            entry(PayloadEncoding::Gzip, len + 1, gz),
        ),
    ];
    for (what, bad) in hostile {
        let mut entries = good.clone();
        entries.insert(3, bad);
        let dir = store_of("hostile", &entries);
        let store = Arc::new(ShardSource::open(&dir).unwrap());
        // Every stored byte is what its index CRC says.
        assert_eq!(store.verify().unwrap(), 6, "{what}");
        for decoders in [1, 2, 4] {
            let tel = Telemetry::disabled();
            let cfg = PipelineConfig {
                batch_size: 2,
                decode_threads: decoders,
                ..PipelineConfig::default()
            };
            let p = Pipeline::launch_with(store.clone(), Arc::new(BytesPlugin), cfg, tel.clone())
                .unwrap();
            // `collect_all` drops the pipeline, which joins every worker.
            let err = p.collect_all().expect_err(what);
            let PipelineError::Storage(inner) = &err else {
                panic!("{what}: {err:?}");
            };
            let inner = inner.downcast_ref::<StoreError>().expect("a store error");
            assert!(
                matches!(inner, StoreError::Compression(_) | StoreError::Malformed(_)),
                "{what}: {inner:?}"
            );
            // Met on a decode thread, booked as the fetch's failure.
            let snap = tel.registry.snapshot();
            assert_eq!(snap.counter("pipeline.fetch_errors"), 1, "{what}");
            assert_eq!(snap.counter("pipeline.decode_errors"), 0, "{what}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    // Encoding byte 2 once sent an entry through `crates/pack`, and this
    // one is that crate's regression stream: a header, its own CRC
    // right, declaring 2^24 chunks and a terabyte. No writer emits the
    // byte any more, so it is patched into the index (index CRC made
    // right again); the store refuses the shard at open, before any
    // entry is read or sized.
    let pack_header = vec![
        83, 80, 65, 75, 1, 1, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 1, 0, 0, 52, 137, 49, 151,
    ];
    let mut entries = good.clone();
    entries.insert(3, entry(PayloadEncoding::Gzip, len, pack_header));
    let dir = store_of("retired", &entries);
    let shard = dir.join("shard_000000.sshard");
    let mut bytes = std::fs::read(&shard).unwrap();
    let trailer = bytes.len() - 24;
    let index = trailer - entries.len() * 21;
    bytes[index + 3 * 21 + 20] = 2;
    let index_crc = crc32(&bytes[index..trailer]);
    bytes[trailer + 16..trailer + 20].copy_from_slice(&index_crc.to_le_bytes());
    std::fs::write(&shard, &bytes).unwrap();
    assert!(matches!(
        ShardSource::open(&dir),
        Err(StoreError::Malformed("unknown payload encoding byte"))
    ));
    std::fs::remove_dir_all(&dir).ok();

    // A flipped stored bit is the reader's to find, as before.
    let dir = store_of("flipped", &good);
    let shard = dir.join("shard_000000.sshard");
    let mut bytes = std::fs::read(&shard).unwrap();
    bytes[16 + good[0].stored.len() + 5] ^= 0x01;
    std::fs::write(&shard, &bytes).unwrap();
    let store = Arc::new(ShardSource::open(&dir).unwrap());
    let tel = Telemetry::disabled();
    let p = Pipeline::launch_with(
        store,
        Arc::new(BytesPlugin),
        PipelineConfig::default(),
        tel.clone(),
    )
    .unwrap();
    let err = p.collect_all().expect_err("flipped bit");
    let PipelineError::Storage(inner) = &err else {
        panic!("{err:?}");
    };
    assert!(matches!(
        inner.downcast_ref::<StoreError>(),
        Some(StoreError::SampleCorrupt { sample: 1, .. })
    ));
    assert_eq!(tel.registry.snapshot().counter("pipeline.fetch_errors"), 1);
    std::fs::remove_dir_all(&dir).ok();
}

/// `epochs` epochs through a pipeline of one reader and `decoders`
/// decode threads, recording into `tel`.
fn run(store: &Arc<ShardSource>, decoders: usize, epochs: usize, tel: &Telemetry) {
    let cfg = PipelineConfig {
        batch_size: 4,
        reader_threads: 1,
        decode_threads: decoders,
        epochs,
        ..PipelineConfig::default()
    };
    let p = Pipeline::launch_with(store.clone(), Arc::new(BytesPlugin), cfg, tel.clone()).unwrap();
    let (batches, _) = p.collect_all().unwrap();
    assert_eq!(
        batches.iter().map(|b| b.len()).sum::<usize>(),
        epochs * store.len()
    );
}

/// The root speed floors (`scripts/ci.sh`, "speed floors"): the
/// placement, as a scaling row of `sciml_simd::speed`. Behind one
/// reader, a gzip store of 16 × 512 KiB low-ratio samples must read at
/// least 1.4x faster with two decode threads than with one. The host's
/// control — two bare threads inflating the same blobs against one — is
/// timed in the same rounds, and only the rounds in which it read
/// [`CONTROL_FLOOR`] or more (both vCPUs there) count, so the row
/// asserts on every run. First it prints the pipeline's own account of
/// a two-decoder run, and checks that `pipeline.unpack_ns` counts every
/// sample of the gzip store and none of a raw one.
#[test]
#[ignore = "timing; release mode, run by scripts/ci.sh"]
fn speed_floors() {
    const N: usize = 16;
    const EPOCHS: usize = 4;
    let samples = low_ratio_samples(N, 512 << 10);
    let stores: Vec<(EncodingChoice, PathBuf)> = [EncodingChoice::Gzip, EncodingChoice::Raw]
        .into_iter()
        .map(|encoding| {
            let dir = tmp_dir(&format!("speed_{encoding}"));
            let pack = PackConfig {
                encoding,
                ..PackConfig::default()
            };
            pack_store(&VecSource::new(samples.clone()), &dir, pack).unwrap();
            (encoding, dir)
        })
        .collect();
    let gzip = Arc::new(ShardSource::open(&stores[0].1).unwrap());
    let raw = Arc::new(ShardSource::open(&stores[1].1).unwrap());

    let tel = Telemetry::disabled();
    let sampler = PipelineSampler::spawn(
        Arc::clone(&tel.registry),
        Arc::clone(&tel.tracer),
        SamplerConfig {
            stages: pipeline_stages(1, 2),
            ..SamplerConfig::default()
        },
    );
    run(&gzip, 2, EPOCHS, &tel);
    let report = sampler.stop();
    let snap = tel.registry.snapshot();
    let p50_us = |name: &str| {
        snap.histogram(name)
            .map_or(0.0, |h| h.percentile(0.5) as f64 / 1e3)
    };
    let ratio = samples[0].len() as f64
        / sciml_compress::gzip_compress(&samples[0], Level::Fast).len() as f64;
    println!(
        "gzip store, {N} x 512 KiB at ratio {ratio:.2}, 1 reader, 2 decoders: fetch p50 {:.0} us, unpack p50 {:.0} us, decode p50 {:.0} us; bottleneck {} ({})",
        p50_us("pipeline.fetch_ns"),
        p50_us("pipeline.unpack_ns"),
        p50_us("pipeline.decode_ns"),
        report.bottleneck,
        report
            .stages
            .iter()
            .map(|s| format!("{} {:.2}", s.name, s.utilization))
            .collect::<Vec<_>>()
            .join(", ")
    );
    assert_eq!(
        snap.histogram("pipeline.unpack_ns").map(|h| h.count),
        Some((EPOCHS * N) as u64)
    );
    let raw_tel = Telemetry::disabled();
    run(&raw, 2, 1, &raw_tel);
    let raw_unpacks = raw_tel
        .registry
        .snapshot()
        .histogram("pipeline.unpack_ns")
        .map(|h| h.count);
    assert_eq!(raw_unpacks, Some(0), "a raw entry is not unpacked");

    let inflate = InflateControl::new();
    let control = Control {
        what: "the control (2 inflate threads / 1)",
        floor: CONTROL_FLOOR,
        fast: &|| inflate.inflate_all(2),
        slow: &|| inflate.inflate_all(1),
    };
    let quiet = Telemetry::disabled();
    let rows: [Row; 1] = [(
        "gzip store behind 1 reader: 2 decode threads / 1",
        1.4,
        true,
        &|| run(&gzip, 2, EPOCHS, &quiet),
        &|| run(&gzip, 1, EPOCHS, &quiet),
    )];
    floors_controlled(Shape::Scaling, "any", &control, &rows);
    for (_, dir) in stores {
        std::fs::remove_dir_all(&dir).ok();
    }
}
