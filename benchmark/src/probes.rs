//! Single-threaded layer probes over the workload's own blobs.
//!
//! Each probe calls public functions of one crate and times them from
//! outside. A layer is probed only on the workloads whose data path it
//! is on; elsewhere its metrics stay 0.

use crate::metrics::Measured;
use crate::stats::{sorted, summarize, tail};
use crate::workloads::{encoding_counts, msg, Kind, Prepared, RemoveOnDrop, Res};
use sciml_codec::{cosmoflow as cf, deepcam as dc, Op};
use sciml_compress::Level;
use sciml_data::serialize;
use sciml_half::F16;
use sciml_pipeline::decoder::DeepCamBaseline;
use sciml_pipeline::source::VecSource;
use sciml_pipeline::{DecodedSample, DecoderPlugin, Label, Pipeline, SampleSource};
use sciml_serve::{RemoteSource, ServeBuilder, ServerConfig};
use sciml_store::{pack_store, EncodingChoice, PackConfig, ShardSource, Stager, StagerConfig};
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Blobs the probes work on: the first of the dataset, up to this total.
const PROBE_BYTES: usize = 8 << 20;
/// Store fetches timed by the store probe.
const STORE_FETCHES: usize = 200;
/// Round trips timed by the serve probe.
const RTT_FETCHES: usize = 1000;

/// Median seconds of `reps` calls.
fn median_s<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            black_box(f());
            t.elapsed().as_secs_f64()
        })
        .collect();
    summarize(&times).map_or(0.0, |s| s.median)
}

fn mb(bytes: usize) -> f64 {
    bytes as f64 / 1e6
}

/// The workload's own encoded samples: the first of the dataset, at
/// least two, up to [`PROBE_BYTES`] in total.
fn probe_blobs(p: &Prepared) -> Res<Vec<Vec<u8>>> {
    // The remote workload's blobs are read from the store behind its
    // server; ingest has no dataset on disk and encodes its originals.
    let source: Option<Arc<dyn SampleSource>> = match p.kind {
        Kind::DeepcamIngestStage => None,
        Kind::DeepcamPluginRemote => Some(Arc::new(ShardSource::open(p.store_dir()).map_err(msg)?)),
        _ => Some(p.open_source()?.0),
    };
    let enc = dc::EncoderConfig::default();
    let (mut blobs, mut total) = (Vec::new(), 0);
    for i in 0..p.kind.samples() {
        let blob = match &source {
            Some(s) => s.fetch(i).map_err(msg)?,
            None => dc::encode(&p.base()[i], &enc).0.to_bytes(),
        };
        total += blob.len();
        if blobs.len() >= 2 && total > PROBE_BYTES {
            break;
        }
        blobs.push(blob);
    }
    Ok(blobs)
}

pub fn run(p: &Prepared, scratch: &Path, decode_p50_us: f64, m: &mut Measured) -> Res<()> {
    let (kind, seed) = (p.kind, p.seed);
    let blobs = probe_blobs(p)?;
    m.set("host.available_parallelism", p.host.nproc as f64);
    m.set("simd.level", sciml_simd::active_level().index() as f64);
    half(kind, m);
    let crc_gb_s = crc32(&blobs, m);
    if kind.is_cosmo() {
        cosmo_codec(kind, seed, m);
    } else {
        deepcam_codec(kind, seed, m)?;
    }
    match kind {
        Kind::CosmoGzipDir => gzip(&blobs[0], None, decode_p50_us, m)?,
        Kind::DeepcamIngestStage => {
            gzip(&blobs[0], Some(Level::Fast), 0.0, m)?;
            pack(&blobs[0], m)?;
        }
        _ => {}
    }
    if kind != Kind::CosmoGzipDir {
        store(kind, &blobs, scratch, crc_gb_s, m)?;
    }
    if kind == Kind::DeepcamPluginRemote {
        serve(p, &blobs, m)?;
    }
    null_pipeline(p, m)?;
    decode_scaling(p, &blobs, m)
}

fn half(kind: Kind, m: &mut Measured) {
    let n = kind.tensor_len();
    let wide: Vec<f32> = (0..n).map(|i| (i % 4096) as f32 * 0.25).collect();
    let mut narrow = vec![F16::from_bits(0); n];
    let t = median_s(5, || sciml_half::slice::narrow_into(&wide, &mut narrow));
    m.set("half.narrow_gelem_s", n as f64 / t / 1e9);
    let mut back = vec![0f32; n];
    let t = median_s(5, || sciml_half::slice::widen_into(&narrow, &mut back));
    m.set("half.widen_gelem_s", n as f64 / t / 1e9);
}

fn crc32(blobs: &[Vec<u8>], m: &mut Measured) -> f64 {
    let all: Vec<u8> = blobs.concat();
    let t = median_s(5, || sciml_compress::crc32::crc32(&all));
    let gb_s = all.len() as f64 / t / 1e9;
    m.set("compress.crc32_gb_s", gb_s);
    gb_s
}

fn cosmo_codec(kind: Kind, seed: u64, m: &mut Measured) {
    let g = kind.cosmo_generator(seed);
    let n = kind.samples() as u64;
    m.set("data.cosmo_gen_ms", median_s(3, || g.generate(n)) * 1e3);
    let s = g.generate(n);
    let melem = s.len() as f64 / 1e6;
    let mut out = vec![F16::from_bits(0); s.len()];
    let t = median_s(5, || cf::baseline_preprocess_into(&s, Op::Log1p, &mut out));
    m.set("codec.cosmo_base_decode_melem_s", melem / t);
    if kind == Kind::CosmoPluginShard {
        m.set(
            "codec.cosmo_encode_melem_s",
            melem / median_s(3, || cf::encode(&s)),
        );
        let enc = cf::encode(&s);
        m.set("codec.cosmo_ratio", enc.compression_ratio());
        let t = median_s(9, || cf::decode_into(&enc, Op::Log1p, &mut out));
        m.set("codec.cosmo_decode_melem_s", melem / t);
    }
}

fn deepcam_codec(kind: Kind, seed: u64, m: &mut Measured) -> Res<()> {
    let g = kind.deepcam_generator(seed);
    let n = kind.samples() as u64;
    m.set("data.deepcam_gen_ms", median_s(3, || g.generate(n)) * 1e3);
    let s = g.generate(n);
    let melem = s.data.len() as f64 / 1e6;
    let cfg = dc::EncoderConfig::default();
    m.set(
        "codec.deepcam_encode_melem_s",
        melem / median_s(3, || dc::encode(&s, &cfg)),
    );
    let enc = dc::encode(&s, &cfg).0;
    m.set("codec.deepcam_ratio", enc.compression_ratio());
    let mut out = vec![F16::from_bits(0); s.data.len()];
    let t = median_s(9, || dc::decode_into(&enc, Op::Identity, &mut out));
    m.set("codec.deepcam_decode_melem_s", melem / t);
    let h5 = serialize::deepcam_to_h5(&s).map_err(msg)?;
    let base = DeepCamBaseline { op: Op::Identity };
    let t = median_s(5, || base.decode_into(&h5, &mut out));
    m.set("codec.deepcam_base_decode_melem_s", melem / t);
    Ok(())
}

/// gzip over one blob. With `level`, the blob is the input and is
/// compressed at that level first (what `EncodingChoice::Auto` does);
/// without, the blob is a gzip file of the dataset and is inflated as
/// it is, then compressed again the way the dataset was prepared.
fn gzip(blob: &[u8], level: Option<Level>, decode_p50_us: f64, m: &mut Measured) -> Res<()> {
    let (plain, level) = match level {
        Some(l) => (blob.to_vec(), l),
        None => (
            sciml_compress::gzip_decompress(blob).map_err(msg)?,
            Level::Default,
        ),
    };
    let mut gz = Vec::new();
    let t = median_s(1, || gz = sciml_compress::gzip_compress(&plain, level));
    m.set("compress.deflate_mb_s", mb(plain.len()) / t);
    m.set("compress.gzip_ratio", plain.len() as f64 / gz.len() as f64);
    let t = median_s(5, || sciml_compress::gzip_decompress(&gz));
    m.set("compress.inflate_mb_s", mb(plain.len()) / t);
    if decode_p50_us > 0.0 {
        m.set("compress.inflate_share", t * 1e6 / decode_p50_us);
    }
    Ok(())
}

/// sciml-pack at the element width the store would pick for this blob.
fn pack(blob: &[u8], m: &mut Measured) -> Res<()> {
    let w1 = sciml_pack::packed_len(blob, 1).map_err(msg)?;
    let w2 = sciml_pack::packed_len(blob, 2).map_err(msg)?;
    let width = if w2 < w1 { 2 } else { 1 };
    let mut packed = Vec::new();
    let t = median_s(3, || {
        packed = sciml_pack::pack(blob, width).expect("width is 1 or 2")
    });
    m.set("pack.encode_mb_s", mb(blob.len()) / t);
    m.set("pack.ratio", blob.len() as f64 / packed.len() as f64);
    let t = median_s(5, || sciml_pack::unpack(&packed));
    m.set("pack.decode_mb_s", mb(blob.len()) / t);
    Ok(())
}

/// Packs the blobs into a store the way the workload does (raw entries,
/// or per-entry `Auto` for ingest), then opens, fetches from, verifies
/// and, for ingest, stages it.
fn store(
    kind: Kind,
    blobs: &[Vec<u8>],
    scratch: &Path,
    crc_gb_s: f64,
    m: &mut Measured,
) -> Res<()> {
    let auto = kind == Kind::DeepcamIngestStage;
    let dir = scratch.join("probe_store");
    let staged_dir = scratch.join("probe_staged");
    let _cleanup = RemoveOnDrop(vec![dir.clone(), staged_dir.clone()]);
    let raw_bytes: usize = blobs.iter().map(Vec::len).sum();
    let config = PackConfig {
        target_shard_bytes: 2 << 20,
        encoding: if auto {
            EncodingChoice::Auto
        } else {
            EncodingChoice::Raw
        },
        level: Level::Fast,
    };
    let t = Instant::now();
    let manifest = pack_store(&VecSource::new(blobs.to_vec()), &dir, config).map_err(msg)?;
    let pack_mb_s = mb(raw_bytes) / t.elapsed().as_secs_f64();
    m.set(
        if auto {
            "store.pack_auto_mb_s"
        } else {
            "store.pack_raw_mb_s"
        },
        pack_mb_s,
    );
    m.set(
        "store.stored_ratio",
        raw_bytes as f64 / manifest.total_bytes() as f64,
    );
    if auto {
        let c = encoding_counts(&dir)?;
        m.set("store.auto_gzip_share", c.gzip as f64 / blobs.len() as f64);
        m.set("store.auto_pack_share", c.pack as f64 / blobs.len() as f64);
    }

    m.set(
        "store.open_ms",
        median_s(5, || ShardSource::open(&dir).map(|s| s.len())) * 1e3,
    );
    let source = ShardSource::open(&dir).map_err(msg)?;
    let mut buf = Vec::new();
    let mut fetch_us = Vec::with_capacity(STORE_FETCHES);
    let mut fetched = 0usize;
    for i in 0..STORE_FETCHES {
        let t = Instant::now();
        source.fetch_into(i % blobs.len(), &mut buf).map_err(msg)?;
        fetch_us.push(t.elapsed().as_secs_f64() * 1e6);
        fetched += black_box(&buf).len();
    }
    let fetch_s: f64 = fetch_us.iter().sum::<f64>() / 1e6;
    let fetch_us = sorted(&fetch_us);
    let (pct, tail_us) = tail(&fetch_us);
    m.set(
        "store.fetch_p50_us",
        crate::stats::percentile(&fetch_us, 50.0),
    );
    m.set("store.fetch_tail_us", tail_us);
    m.set("store.fetch_tail_pct", pct);
    m.set("store.fetch_mb_s", mb(fetched) / fetch_s);
    // Computed, not measured: the stored bytes of these fetches at the
    // CRC-32 rate probed above, over the time the fetches took.
    let stored_per_raw = manifest.total_bytes() as f64 / raw_bytes as f64;
    m.set(
        "store.crc_share",
        fetched as f64 * stored_per_raw / (crc_gb_s * 1e9) / fetch_s,
    );
    let t = median_s(3, || source.verify());
    m.set("store.verify_mb_s", mb(manifest.total_bytes() as usize) / t);

    if auto {
        let backing: Arc<dyn SampleSource> = Arc::new(source);
        let stager_cfg = StagerConfig {
            workers: 1,
            ..StagerConfig::default()
        };
        let stager =
            Stager::new(backing, manifest.plans(), &staged_dir, stager_cfg).map_err(msg)?;
        let t = Instant::now();
        let progress = stager.run().map_err(msg)?;
        m.set(
            "store.stage_mb_s",
            mb(raw_bytes) / t.elapsed().as_secs_f64(),
        );
        if !progress.complete() {
            return Err("probe staging did not complete".into());
        }
    }
    Ok(())
}

/// Protocol and reactor floor (1 KiB sample), and payload throughput
/// with the server's cache holding everything and holding nothing.
fn serve(p: &Prepared, blobs: &[Vec<u8>], m: &mut Measured) -> Res<()> {
    let start = |cache_bytes: u64| {
        ServeBuilder::new()
            .config(ServerConfig {
                workers: p.host.server_workers(),
                cache_bytes,
                ..ServerConfig::default()
            })
            .dataset("blobs", Arc::new(VecSource::new(blobs.to_vec())))
            .dataset("small", Arc::new(VecSource::new(vec![vec![7u8; 1024]])))
            .bind("127.0.0.1:0")
            .map_err(msg)
    };
    let payload_mb_s = |addr: &str| -> Res<f64> {
        let remote = RemoteSource::connect(addr, "blobs").map_err(msg)?;
        let mut buf = Vec::new();
        for i in 0..blobs.len() {
            remote.fetch_into(i, &mut buf).map_err(msg)?;
        }
        let (t, mut bytes) = (Instant::now(), 0);
        for i in 0..4 * blobs.len() {
            remote.fetch_into(i % blobs.len(), &mut buf).map_err(msg)?;
            bytes += black_box(&buf).len();
        }
        Ok(mb(bytes) / t.elapsed().as_secs_f64())
    };

    let hot = start(u64::MAX / 2)?;
    let addr = hot.local_addr().to_string();
    let connect = median_s(5, || {
        RemoteSource::connect(addr.as_str(), "small").map(|r| r.len())
    });
    m.set("serve.connect_ms", connect * 1e3);
    let small = RemoteSource::connect(addr.as_str(), "small").map_err(msg)?;
    let mut buf = Vec::new();
    let mut rtt_us = Vec::with_capacity(RTT_FETCHES);
    for _ in 0..RTT_FETCHES {
        let t = Instant::now();
        small.fetch_into(0, &mut buf).map_err(msg)?;
        rtt_us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    let rtt_us = sorted(&rtt_us);
    let (pct, tail_us) = tail(&rtt_us);
    m.set("serve.rtt_p50_us", crate::stats::percentile(&rtt_us, 50.0));
    m.set("serve.rtt_tail_us", tail_us);
    m.set("serve.rtt_tail_pct", pct);
    m.set("serve.fetch_hot_mb_s", payload_mb_s(&addr)?);
    drop(small);
    hot.shutdown();

    let cold = start(0)?;
    m.set(
        "serve.fetch_cold_mb_s",
        payload_mb_s(&cold.local_addr().to_string())?,
    );
    cold.shutdown();
    Ok(())
}

/// A plugin that decodes nothing: what is left is the pipeline itself.
struct NullPlugin {
    len: usize,
}

impl DecoderPlugin for NullPlugin {
    fn decode(&self, _: &[u8]) -> sciml_pipeline::Result<DecodedSample> {
        Ok(DecodedSample {
            data: vec![F16::from_bits(0); self.len],
            label: Label::Cosmo([0.0; 4]),
        })
    }

    fn decode_into(&self, _: &[u8], _: &mut [F16]) -> sciml_pipeline::Result<Label> {
        Ok(Label::Cosmo([0.0; 4]))
    }

    fn name(&self) -> &'static str {
        "null"
    }
}

/// Channels, pool and in-place batch assembly alone: an in-memory source
/// of 64-byte blobs and a plugin that writes nothing, at the workload's
/// tensor size and thread counts.
fn null_pipeline(p: &Prepared, m: &mut Measured) -> Res<()> {
    const SAMPLES: usize = 64;
    const EPOCHS: usize = 64;
    let source = Arc::new(VecSource::new(vec![vec![0u8; 64]; SAMPLES]));
    let plugin = Arc::new(NullPlugin {
        len: p.kind.tensor_len(),
    });
    let cfg = p.host.pipeline_config(p.kind, EPOCHS, 0);
    let t = Instant::now();
    let mut pipeline = Pipeline::launch(source, plugin, cfg).map_err(msg)?;
    let mut delivered = 0;
    while let Some(batch) = pipeline.next_batch().map_err(msg)? {
        delivered += black_box(&batch).len();
    }
    drop(pipeline);
    let us = t.elapsed().as_secs_f64() * 1e6;
    if delivered != SAMPLES * EPOCHS {
        return Err(format!("null pipeline delivered {delivered} samples"));
    }
    m.set("pipeline.null_us_per_sample", us / delivered as f64);
    Ok(())
}

/// Sample rate with two decode threads over twice the rate with one, the
/// real plugin over an in-memory source.
fn decode_scaling(p: &Prepared, blobs: &[Vec<u8>], m: &mut Measured) -> Res<()> {
    if p.host.nproc < 2 {
        return Ok(());
    }
    let epochs = match p.kind {
        Kind::CosmoPluginShard => 32,
        Kind::CosmoGzipDir => 4,
        _ => 8,
    };
    let rate = |decode_threads: usize| -> Res<f64> {
        let mut cfg = p.host.pipeline_config(p.kind, epochs, 0);
        (cfg.reader_threads, cfg.decode_threads) = (1, decode_threads);
        let source = Arc::new(VecSource::new(blobs.to_vec()));
        let t = Instant::now();
        let mut pipeline = Pipeline::launch(source, p.kind.plugin(), cfg).map_err(msg)?;
        let mut delivered = 0;
        while let Some(batch) = pipeline.next_batch().map_err(msg)? {
            delivered += black_box(&batch).len();
        }
        drop(pipeline);
        Ok(delivered as f64 / t.elapsed().as_secs_f64())
    };
    let one = rate(1)?;
    m.set("pipeline.decode_scaling_eff", rate(2)? / (2.0 * one));
    Ok(())
}
