//! The four workloads: inputs from a seed, set-up, and one measured round.
//!
//! Load shape: a closed loop with one client. A single consumer thread
//! calls `Pipeline::next_batch`, checks the batch, and only then asks
//! for the next one. Every round opens its source anew (re-reading the
//! shard footers, reconnecting to the server) and launches a fresh
//! `Pipeline`, so per-run costs show in every round.

use crate::trace::{self, Scope, TimedPlugin, TimedSource};
use crate::verify::{digest_bytes, Checker, Reference};
use sciml_codec::{cosmoflow as cf, deepcam as dc, ErrorStats, Op};
use sciml_compress::Level;
use sciml_data::cosmoflow::{CosmoFlowConfig, UniverseGenerator};
use sciml_data::deepcam::{ClimateGenerator, DeepCamConfig, DeepCamSample};
use sciml_data::serialize;
use sciml_pipeline::decoder::{CosmoGzip, CosmoPluginCpu, DeepCamPluginCpu};
use sciml_pipeline::source::{DirSource, VecSource};
use sciml_pipeline::{DecoderPlugin, Label, Pipeline, PipelineConfig, SampleSource};
use sciml_serve::{ClientConfig, RemoteSource, ServeBuilder, ServerConfig, ServerHandle};
use sciml_store::{
    pack_store, EncodingChoice, EncodingCounts, PackConfig, ShardReader, ShardSource, Stager,
    StagerConfig, StoreManifest,
};
use std::collections::HashMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

pub type Res<T> = Result<T, String>;

/// Any error as its message.
pub fn msg<E: std::fmt::Display>(e: E) -> String {
    e.to_string()
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    CosmoPluginShard,
    DeepcamPluginRemote,
    CosmoGzipDir,
    DeepcamIngestStage,
}

/// Name under which the server exports the remote workload's store.
const DATASET: &str = "deepcam";
/// Shards of the read workloads: a handful per store, so that a fetch
/// has to find its shard.
const SHARD_BYTES: u64 = 8 << 20;
/// Shards of the ingest workload: small, so that staging completes shard
/// by shard while the pipeline is already reading.
const INGEST_SHARD_BYTES: u64 = 2 << 20;
/// Operating point of the lossy DeepCAM codec: the paper reports ≈ 3 %
/// of values above 10 % relative error (§V-A).
pub const DEEPCAM_MAX_ERR_FRAC: f64 = 0.05;

impl Kind {
    pub const ALL: [Kind; 4] = [
        Kind::CosmoPluginShard,
        Kind::DeepcamPluginRemote,
        Kind::CosmoGzipDir,
        Kind::DeepcamIngestStage,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::CosmoPluginShard => "cosmo_plugin_shard",
            Kind::DeepcamPluginRemote => "deepcam_plugin_remote",
            Kind::CosmoGzipDir => "cosmo_gzip_dir",
            Kind::DeepcamIngestStage => "deepcam_ingest_stage",
        }
    }

    pub fn from_name(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    pub fn is_cosmo(self) -> bool {
        matches!(self, Kind::CosmoPluginShard | Kind::CosmoGzipDir)
    }

    /// Samples in the dataset.
    pub fn samples(self) -> usize {
        match self {
            Kind::CosmoPluginShard => 32,
            Kind::DeepcamPluginRemote => 12,
            Kind::CosmoGzipDir => 8,
            Kind::DeepcamIngestStage => 8,
        }
    }

    /// Epochs one pipeline run reads. Sized so that a round delivers
    /// about a hundred samples or more: the prefetch queue's fill and
    /// drain then stay a small part of the round.
    pub fn epochs(self) -> usize {
        match self {
            Kind::CosmoPluginShard => 8,
            Kind::DeepcamPluginRemote => 8,
            Kind::CosmoGzipDir => 12,
            Kind::DeepcamIngestStage => 8,
        }
    }

    /// CosmoFlow grid edge (four redshift channels per voxel).
    fn grid(self) -> usize {
        match self {
            Kind::CosmoGzipDir => 48,
            _ => 64,
        }
    }

    /// DeepCAM width, height, channels.
    fn image(self) -> (usize, usize, usize) {
        match self {
            Kind::DeepcamIngestStage => (288, 192, 8),
            _ => (576, 384, 8),
        }
    }

    /// FP16 values per decoded sample.
    pub fn tensor_len(self) -> usize {
        if self.is_cosmo() {
            self.grid().pow(3) * 4
        } else {
            let (w, h, c) = self.image();
            w * h * c
        }
    }

    pub fn shape(self) -> String {
        if self.is_cosmo() {
            let g = self.grid();
            format!("{g}x{g}x{g}x4 f16")
        } else {
            let (w, h, c) = self.image();
            format!("{w}x{h}x{c} f16")
        }
    }

    pub fn plugin(self) -> Arc<dyn DecoderPlugin> {
        match self {
            Kind::CosmoPluginShard => Arc::new(CosmoPluginCpu { op: Op::Log1p }),
            Kind::CosmoGzipDir => Arc::new(CosmoGzip { op: Op::Log1p }),
            Kind::DeepcamPluginRemote | Kind::DeepcamIngestStage => {
                Arc::new(DeepCamPluginCpu { op: Op::Identity })
            }
        }
    }

    pub fn cosmo_generator(self, seed: u64) -> UniverseGenerator {
        UniverseGenerator::new(CosmoFlowConfig {
            grid: self.grid(),
            seed,
            ..CosmoFlowConfig::default()
        })
    }

    pub fn deepcam_generator(self, seed: u64) -> ClimateGenerator {
        let (width, height, channels) = self.image();
        ClimateGenerator::new(DeepCamConfig {
            width,
            height,
            channels,
            seed,
            ..DeepCamConfig::default()
        })
    }
}

/// Thread counts, never more than the host has cores.
#[derive(Debug, Clone, Copy)]
pub struct Host {
    pub nproc: usize,
}

impl Host {
    pub fn detect() -> Host {
        Host {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
        }
    }

    pub fn decode_threads(self) -> usize {
        self.nproc.min(2)
    }

    /// One reader, except on the remote workload: two connections.
    pub fn reader_threads(self, kind: Kind) -> usize {
        match kind {
            Kind::DeepcamPluginRemote => self.nproc.min(2),
            _ => 1,
        }
    }

    pub fn server_workers(self) -> usize {
        self.nproc.min(2)
    }

    pub fn pipeline_config(self, kind: Kind, epochs: usize, seed: u64) -> PipelineConfig {
        PipelineConfig {
            batch_size: 4,
            prefetch: 8,
            decode_threads: self.decode_threads(),
            reader_threads: self.reader_threads(kind),
            epochs,
            seed,
            drop_remainder: false,
            pool_capacity: None,
        }
    }
}

/// One encoded sample with what set-up learned about it.
struct Encoded {
    blob: Vec<u8>,
    reference: Reference,
    errors: ErrorStats,
    /// The reference decode agrees with an independent ground truth.
    truth_ok: bool,
    /// Ingest only: the FP32 original, which every round encodes again.
    original: Option<DeepCamSample>,
}

/// `ln(1 + count)` for every possible particle count: the FP32 original
/// of a CosmoFlow tensor value.
fn ln1p_table() -> Vec<f32> {
    (0..=u16::MAX).map(|c| f32::from(c).ln_1p()).collect()
}

fn reference_decode(
    plugin: &dyn DecoderPlugin,
    blob: Vec<u8>,
    original: impl Iterator<Item = f32>,
    truth: impl FnOnce(&[sciml_half::F16], &Label) -> bool,
) -> Res<Encoded> {
    let d = plugin.decode(&blob).map_err(msg)?;
    let mut errors = ErrorStats::new(1.0);
    for (v, o) in d.data.iter().zip(original) {
        errors.record(v.to_f32(), o);
    }
    Ok(Encoded {
        truth_ok: errors.total == d.data.len() as u64 && truth(&d.data, &d.label),
        reference: Reference::of(&d.data, &d.label),
        errors,
        blob,
        original: None,
    })
}

/// Generates sample `i`, encodes it the way the workload stores it, and
/// decodes it once for reference. CosmoFlow decodes must equal the
/// baseline per-voxel path bit for bit; DeepCAM decodes are compared
/// with the FP32 original through the error statistics.
fn encode_sample(kind: Kind, seed: u64, i: u64, ln1p: &[f32]) -> Res<Encoded> {
    let plugin = kind.plugin();
    if kind.is_cosmo() {
        let s = kind.cosmo_generator(seed).generate(i);
        let blob = match kind {
            Kind::CosmoGzipDir => CosmoGzip::compress_payload(&serialize::cosmo_to_payload(&s)),
            _ => cf::encode(&s).to_bytes(),
        };
        let original = s.counts.iter().map(|&c| ln1p[usize::from(c)]);
        reference_decode(&*plugin, blob, original, |data, label| {
            data == cf::baseline_preprocess(&s, Op::Log1p).as_slice()
                && *label == Label::Cosmo(s.label.as_array())
        })
    } else {
        let s = kind.deepcam_generator(seed).generate(i);
        let blob = dc::encode(&s, &dc::EncoderConfig::default()).0.to_bytes();
        let mut e = reference_decode(&*plugin, blob, s.data.iter().copied(), |_, label| {
            *label == Label::Mask(s.mask.clone())
        })?;
        e.original = (kind == Kind::DeepcamIngestStage).then_some(s);
        Ok(e)
    }
}

/// Encodes the whole dataset, `threads` samples at a time.
fn encode_dataset(kind: Kind, seed: u64, threads: usize) -> Res<Vec<Encoded>> {
    let n = kind.samples();
    let ln1p = if kind.is_cosmo() {
        ln1p_table()
    } else {
        Vec::new()
    };
    let ln1p = &ln1p;
    // Thread `t` takes samples t, t + threads, …
    let parts: Vec<Res<Vec<(usize, Encoded)>>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                scope.spawn(move || {
                    (t..n)
                        .step_by(threads)
                        .map(|i| encode_sample(kind, seed, i as u64, ln1p).map(|e| (i, e)))
                        .collect()
                })
            })
            .collect();
        let joined = handles.into_iter().map(|h| {
            h.join()
                .unwrap_or_else(|_| Err("encode thread panicked".into()))
        });
        joined.collect()
    });
    let mut all: Vec<(usize, Encoded)> = Vec::with_capacity(n);
    for part in parts {
        all.extend(part?);
    }
    all.sort_by_key(|(i, _)| *i);
    Ok(all.into_iter().map(|(_, e)| e).collect())
}

/// A freshly opened source, and the same source once more when it is a
/// remote one (for the client's retry counter).
pub type Opened = (Arc<dyn SampleSource>, Option<Arc<RemoteSource>>);

/// What one round measured.
#[derive(Debug, Default)]
pub struct Round {
    pub wall_s: f64,
    pub first_batch_ms: f64,
    /// User plus system CPU time of the whole process over the round.
    pub cpu_s: f64,
    /// Highest live heap bytes during the round, and allocations made.
    pub peak_heap_bytes: u64,
    pub allocations: u64,
    /// Operations that should have completed, and those that did not.
    pub attempted: u64,
    pub failed: u64,
    /// Samples delivered to the consumer (ingested, for the ingest workload).
    pub samples: u64,
    /// Bytes moved from the source tier (staged-store bytes, for ingest).
    pub source_bytes: u64,
    /// Retries of the remote client (0 on the other workloads).
    pub client_retries: u64,
    pub pool_hits: u64,
    pub pool_misses: u64,
    pub wait_s: f64,
    /// Time between consecutive batch arrivals.
    pub gaps_ms: Vec<f64>,
    pub ingest: Option<IngestRound>,
    pub error: Option<String>,
}

/// Phase times and store counters of one ingest round.
#[derive(Debug, Default, Clone, Copy)]
pub struct IngestRound {
    pub encode_s: f64,
    pub pack_s: f64,
    pub stage_s: f64,
    pub verify_s: f64,
    pub local_hits: u64,
    pub fallthroughs: u64,
}

impl Round {
    pub fn samples_per_s(&self) -> f64 {
        self.samples as f64 / self.wall_s
    }
}

/// What draining one pipeline run measured.
struct Drained {
    first_batch: Option<Instant>,
    wait_s: f64,
    gaps_ms: Vec<f64>,
    pool_hits: u64,
    pool_misses: u64,
    error: Option<String>,
}

/// The consumer: ask for a batch, check it, drop it, ask again.
fn drain(pipeline: &mut Pipeline, checker: &mut Checker, traced: bool) -> Drained {
    let mut d = Drained {
        first_batch: None,
        wait_s: 0.0,
        gaps_ms: Vec::new(),
        pool_hits: 0,
        pool_misses: 0,
        error: None,
    };
    let mut last_arrival: Option<Instant> = None;
    loop {
        let asked = Instant::now();
        let next = {
            let _wait = Scope::new(traced, trace::WAIT);
            pipeline.next_batch()
        };
        let arrived = Instant::now();
        d.wait_s += (arrived - asked).as_secs_f64();
        match next {
            Ok(Some(batch)) => {
                d.first_batch.get_or_insert(arrived);
                if let Some(prev) = last_arrival.replace(arrived) {
                    d.gaps_ms.push((arrived - prev).as_secs_f64() * 1e3);
                }
                let mut check = Scope::new(traced, trace::CHECK);
                check.set_indices(&batch.indices);
                check.set_bytes((batch.data.len() * 2) as u64);
                checker.check(&batch);
            }
            Ok(None) => break,
            Err(e) => {
                d.error = Some(e.to_string());
                break;
            }
        }
    }
    let pool = pipeline.pool();
    (d.pool_hits, d.pool_misses) = (pool.hits(), pool.misses());
    d
}

/// A workload after set-up: inputs on disk, server running, references
/// in memory.
pub struct Prepared {
    pub kind: Kind,
    pub host: Host,
    pub seed: u64,
    dir: PathBuf,
    refs: Vec<Reference>,
    /// Dataset index by blob key, for the decode decorator.
    blob_ids: Arc<HashMap<u64, i64>>,
    /// Decoded values against the FP32 originals, whole dataset.
    pub errors: ErrorStats,
    /// Operations of set-up (reference decodes and warm-up deliveries)
    /// and how many of them failed.
    pub setup_attempted: u64,
    pub setup_failed: u64,
    server: Option<ServerHandle>,
    /// Ingest only: the FP32 originals every round encodes, and the
    /// digest of each encoded blob.
    base: Vec<DeepCamSample>,
    blob_digests: Vec<u64>,
    rounds_run: u32,
}

impl Prepared {
    /// Set-up: generate → encode → write or pack → start the server →
    /// one warm-up epoch (one warm-up round, for ingest) in which every
    /// delivered tensor is compared in full with its reference.
    pub fn set_up(kind: Kind, seed: u64, host: Host, dir: &Path) -> Res<Prepared> {
        fs::create_dir_all(dir).map_err(msg)?;
        let encoded = encode_dataset(kind, seed, host.nproc.min(2))?;
        let mut errors = ErrorStats::new(1.0);
        for e in &encoded {
            errors.merge(&e.errors);
        }
        let truth_failures = encoded.iter().filter(|e| !e.truth_ok).count() as u64;
        let refs: Vec<Reference> = encoded.iter().map(|e| e.reference).collect();
        let blob_ids = Arc::new(trace::blob_index(encoded.iter().map(|e| e.blob.as_slice())));
        let blob_digests = encoded.iter().map(|e| digest_bytes(&e.blob)).collect();
        let total_bytes: u64 = encoded.iter().map(|e| e.blob.len() as u64).sum();
        let (blobs, base): (Vec<Vec<u8>>, Vec<Option<DeepCamSample>>) =
            encoded.into_iter().map(|e| (e.blob, e.original)).unzip();

        let mut p = Prepared {
            kind,
            host,
            seed,
            dir: dir.to_path_buf(),
            refs,
            blob_ids,
            errors,
            setup_attempted: kind.samples() as u64,
            setup_failed: truth_failures,
            server: None,
            base: base.into_iter().flatten().collect(),
            blob_digests,
            rounds_run: 0,
        };
        let raw_store = PackConfig {
            target_shard_bytes: SHARD_BYTES,
            encoding: EncodingChoice::Raw,
            level: Level::Fast,
        };
        match kind {
            Kind::CosmoPluginShard => {
                pack_store(&VecSource::new(blobs), &p.store_dir(), raw_store).map_err(msg)?;
            }
            Kind::DeepcamPluginRemote => {
                pack_store(&VecSource::new(blobs), &p.store_dir(), raw_store).map_err(msg)?;
                let store = Arc::new(ShardSource::open(p.store_dir()).map_err(msg)?);
                let config = ServerConfig {
                    workers: host.server_workers(),
                    // A quarter of the set: the working set is four times
                    // the server's hot cache.
                    cache_bytes: total_bytes / 4,
                    ..ServerConfig::default()
                };
                let server = ServeBuilder::new()
                    .config(config)
                    .dataset_store(DATASET, store)
                    .bind("127.0.0.1:0")
                    .map_err(msg)?;
                p.server = Some(server);
            }
            Kind::CosmoGzipDir => {
                DirSource::write_all(p.store_dir(), &blobs).map_err(msg)?;
            }
            // Every ingest round encodes and packs the originals itself.
            Kind::DeepcamIngestStage => {}
        }
        let warm = p.round_with(false, true, 1);
        p.rounds_run = 0;
        p.setup_attempted += warm.attempted;
        p.setup_failed += warm.failed;
        match warm.error {
            Some(e) => Err(format!("warm-up: {e}")),
            None => Ok(p),
        }
    }

    /// Store directory of the read workloads (files, for the dir source).
    pub fn store_dir(&self) -> PathBuf {
        self.dir.join("store")
    }

    pub fn server(&self) -> Option<&ServerHandle> {
        self.server.as_ref()
    }

    pub fn base(&self) -> &[DeepCamSample] {
        &self.base
    }

    /// Opens the workload's source the way each round does.
    pub fn open_source(&self) -> Res<Opened> {
        Ok(match self.kind {
            Kind::CosmoPluginShard => (
                Arc::new(ShardSource::open(self.store_dir()).map_err(msg)?),
                None,
            ),
            Kind::DeepcamPluginRemote => {
                let server = self.server.as_ref().ok_or("server not running")?;
                let addr = server.local_addr().to_string();
                let config = ClientConfig {
                    pool_size: self.host.reader_threads(self.kind),
                    ..ClientConfig::default()
                };
                let remote =
                    Arc::new(RemoteSource::connect_with(addr, DATASET, config).map_err(msg)?);
                (remote.clone(), Some(remote))
            }
            Kind::CosmoGzipDir => (
                Arc::new(DirSource::open(self.store_dir(), self.kind.samples())),
                None,
            ),
            Kind::DeepcamIngestStage => {
                return Err("the ingest workload builds its own source".into())
            }
        })
    }

    /// One measured round.
    pub fn round(&mut self, traced: bool) -> Round {
        self.round_with(traced, false, self.kind.epochs())
    }

    fn round_with(&mut self, traced: bool, full_check: bool, epochs: usize) -> Round {
        self.rounds_run += 1;
        trace::set_round(self.rounds_run);
        let shuffle_seed = self.seed.wrapping_add(u64::from(self.rounds_run));
        let cfg = self.host.pipeline_config(self.kind, epochs, shuffle_seed);
        let mut checker = Checker::new(&self.refs, epochs, full_check);
        crate::alloc::reset_peak();
        let allocations_before = crate::alloc::allocations();
        let cpu_before = crate::procstat::cpu_seconds();
        let mut r = match self.kind {
            Kind::DeepcamIngestStage => self.ingest_round(traced, cfg, &mut checker),
            _ => self.read_round(traced, cfg, &mut checker),
        }
        .unwrap_or_else(|e| Round {
            error: Some(e),
            ..Round::default()
        });
        r.cpu_s = match (cpu_before, crate::procstat::cpu_seconds()) {
            (Ok(before), Ok(after)) => after - before,
            (Err(e), _) | (_, Err(e)) => {
                r.error.get_or_insert(e);
                0.0
            }
        };
        r.peak_heap_bytes = crate::alloc::peak_bytes() as u64;
        r.allocations = crate::alloc::allocations() - allocations_before;
        if self.kind != Kind::DeepcamIngestStage {
            r.attempted = checker.attempted();
            r.failed = checker.failed();
            r.samples = checker.delivered();
        }
        r
    }

    fn wrap(
        &self,
        traced: bool,
        source: Arc<dyn SampleSource>,
    ) -> (Arc<dyn SampleSource>, Arc<dyn DecoderPlugin>) {
        let plugin = self.kind.plugin();
        if !traced {
            return (source, plugin);
        }
        (
            Arc::new(TimedSource { inner: source }),
            Arc::new(TimedPlugin {
                inner: plugin,
                ids: Arc::clone(&self.blob_ids),
            }),
        )
    }

    /// Open the source, launch a pipeline over it, drain it.
    fn read_round(&self, traced: bool, cfg: PipelineConfig, checker: &mut Checker) -> Res<Round> {
        let run = Scope::new(traced, trace::RUN);
        let started = Instant::now();
        let (source, remote) = self.open_source()?;
        let (src, plugin) = self.wrap(traced, Arc::clone(&source));
        let mut pipeline = Pipeline::launch(src, plugin, cfg).map_err(msg)?;
        let d = drain(&mut pipeline, checker, traced);
        // Dropping the pipeline joins its worker threads.
        drop(pipeline);
        let wall_s = started.elapsed().as_secs_f64();
        drop(run);
        Ok(Round {
            wall_s,
            first_batch_ms: d
                .first_batch
                .map_or(0.0, |t| (t - started).as_secs_f64() * 1e3),
            source_bytes: source.bytes_read(),
            client_retries: remote.map_or(0, |r| r.retries()),
            pool_hits: d.pool_hits,
            pool_misses: d.pool_misses,
            wait_s: d.wait_s,
            gaps_ms: d.gaps_ms,
            error: d.error,
            ..Round::default()
        })
    }

    /// The same layers used the other way round: encode the base
    /// samples, pack them into a store with per-entry `Auto` encoding,
    /// stage that store into a fresh directory with one stager worker
    /// while a pipeline reads two epochs through the staging source,
    /// then verify the staged copy. One operation is one sample encoded,
    /// packed, staged, read back twice and found byte-identical.
    fn ingest_round(&self, traced: bool, cfg: PipelineConfig, checker: &mut Checker) -> Res<Round> {
        let n = self.base.len();
        let origin_dir = self.dir.join(format!("origin_{}", self.rounds_run));
        let staged_dir = self.dir.join(format!("staged_{}", self.rounds_run));
        let _cleanup = RemoveOnDrop(vec![origin_dir.clone(), staged_dir.clone()]);
        let mut ing = IngestRound::default();
        let round = Scope::new(traced, trace::INGEST_ROUND);
        let started = Instant::now();

        let phase = Scope::new(traced, "ingest.encode");
        let enc = dc::EncoderConfig::default();
        let blobs: Vec<Vec<u8>> = self
            .base
            .iter()
            .map(|s| dc::encode(s, &enc).0.to_bytes())
            .collect();
        let encoded_ok = blobs
            .iter()
            .zip(&self.blob_digests)
            .all(|(b, &want)| digest_bytes(b) == want);
        drop(phase);
        let after_encode = Instant::now();

        let phase = Scope::new(traced, "ingest.pack");
        let pack = PackConfig {
            target_shard_bytes: INGEST_SHARD_BYTES,
            encoding: EncodingChoice::Auto,
            level: Level::Fast,
        };
        pack_store(&VecSource::new(blobs), &origin_dir, pack).map_err(msg)?;
        drop(phase);
        let after_pack = Instant::now();

        // What `sciml_core::api::build_staged_pipeline` does, spelled
        // out so that the staging source can be wrapped for tracing.
        let phase = Scope::new(traced, "ingest.stage_read");
        let run = Scope::new(traced, trace::RUN);
        let origin = Arc::new(ShardSource::open(&origin_dir).map_err(msg)?);
        let plans = origin.manifest().plans();
        let stager_cfg = StagerConfig {
            workers: 1,
            ..StagerConfig::default()
        };
        let backing: Arc<dyn SampleSource> = origin.clone();
        let stager = Stager::new(backing, plans, &staged_dir, stager_cfg).map_err(msg)?;
        stager.spawn_workers();
        let staging = Arc::new(stager.source());
        let (src, plugin) = self.wrap(traced, staging.clone());
        let mut pipeline = Pipeline::launch(src, plugin, cfg).map_err(msg)?;
        let d = drain(&mut pipeline, checker, traced);
        drop(pipeline);
        drop(run);
        let progress = stager.join().map_err(msg)?;
        drop(phase);
        let after_stage = Instant::now();

        let phase = Scope::new(traced, "ingest.verify");
        let staged = ShardSource::open(&staged_dir).map_err(msg)?;
        let verified = staged.verify().map_err(msg)?;
        let mut mismatched = 0u64;
        for (i, &want) in self.blob_digests.iter().enumerate() {
            let copy = staged.fetch_verified(i).map_err(msg)?;
            mismatched += u64::from(digest_bytes(&copy) != want);
        }
        drop(phase);
        let ended = Instant::now();
        drop(round);

        ing.encode_s = (after_encode - started).as_secs_f64();
        ing.pack_s = (after_pack - after_encode).as_secs_f64();
        ing.stage_s = (after_stage - after_pack).as_secs_f64();
        ing.verify_s = (ended - after_stage).as_secs_f64();
        ing.local_hits = staging.local_hits();
        ing.fallthroughs = staging.fallthroughs();
        let whole_round_ok =
            encoded_ok && progress.complete() && verified == n as u64 && d.error.is_none();
        let failed = if whole_round_ok {
            (checker.failed() + mismatched).min(n as u64)
        } else {
            n as u64
        };
        Ok(Round {
            wall_s: (ended - started).as_secs_f64(),
            first_batch_ms: d
                .first_batch
                .map_or(0.0, |t| (t - after_pack).as_secs_f64() * 1e3),
            attempted: n as u64,
            failed,
            samples: n as u64 - failed,
            source_bytes: progress.staged_bytes,
            client_retries: 0,
            pool_hits: d.pool_hits,
            pool_misses: d.pool_misses,
            wait_s: d.wait_s,
            gaps_ms: d.gaps_ms,
            ingest: Some(ing),
            error: d.error,
            ..Round::default()
        })
    }

    /// Stops the server and removes the inputs.
    pub fn tear_down(mut self) {
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
        let _ = fs::remove_dir_all(&self.dir);
    }
}

/// How the entries of a packed store are encoded, over all its shards.
pub fn encoding_counts(store_dir: &Path) -> Res<EncodingCounts> {
    let manifest = StoreManifest::load_from(store_dir).map_err(msg)?;
    let mut total = EncodingCounts::default();
    for meta in &manifest.shards {
        let reader = ShardReader::open(store_dir.join(&meta.file)).map_err(msg)?;
        total.merge(reader.encoding_counts());
    }
    Ok(total)
}

/// Removes directories when dropped, also on an early return.
pub struct RemoveOnDrop(pub Vec<PathBuf>);

impl Drop for RemoveOnDrop {
    fn drop(&mut self) {
        for dir in &self.0 {
            let _ = fs::remove_dir_all(dir);
        }
    }
}
