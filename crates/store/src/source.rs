//! [`SampleSource`] implementations over the packed store: a direct
//! reader for a complete store directory, and the staged-with-fallback
//! view used while a [`Stager`](crate::stager::Stager) is running.

use crate::manifest::StoreManifest;
use crate::shard::{file_crc32, PayloadEncoding, ShardReader};
use crate::stager::Shared;
use crate::{Result, StoreError};
use sciml_obs::{Counter, Histogram, Telemetry};
use sciml_pipeline::source::{SampleSource, Stored};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// A [`SampleSource`] over a complete packed store directory.
///
/// Opening loads the manifest and every shard's footer index (validated
/// by CRC); fetches are then positioned reads against shared file
/// descriptors, so concurrent pipeline readers never serialize on a
/// seek lock.
pub struct ShardSource {
    dir: PathBuf,
    manifest: StoreManifest,
    readers: Vec<ShardReader>,
    read: AtomicU64,
    fetch_us: Option<Arc<Histogram>>,
    fetches: Option<Arc<Counter>>,
    /// Per-encoding decode counters (`store.decode.{raw,gzip}`),
    /// indexed by [`PayloadEncoding`] discriminant order. On a serving
    /// node these share the registry with `ServerMetrics`, which lifts
    /// them into stats replies.
    decoded: Option<[Arc<Counter>; 2]>,
}

impl ShardSource {
    /// Opens a packed store directory, validating every shard's header
    /// and footer index up front.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self> {
        Self::open_inner(dir.into(), None)
    }

    /// [`ShardSource::open`] plus `store.fetch.*` instruments in
    /// `telemetry.registry` (latency histogram and fetch counter).
    pub fn open_with_telemetry(dir: impl Into<PathBuf>, telemetry: &Telemetry) -> Result<Self> {
        Self::open_inner(dir.into(), Some(telemetry))
    }

    fn open_inner(dir: PathBuf, telemetry: Option<&Telemetry>) -> Result<Self> {
        let manifest = StoreManifest::load_from(&dir)?;
        let mut readers = Vec::with_capacity(manifest.shards.len());
        for meta in &manifest.shards {
            let reader = ShardReader::open(dir.join(&meta.file))?;
            if reader.base() != meta.first || reader.count() as u64 != meta.count {
                return Err(StoreError::Manifest(format!(
                    "shard {} disagrees with manifest (base {} count {}, manifest {} {})",
                    meta.file,
                    reader.base(),
                    reader.count(),
                    meta.first,
                    meta.count
                )));
            }
            readers.push(reader);
        }
        Ok(Self {
            dir,
            manifest,
            readers,
            read: AtomicU64::new(0),
            fetch_us: telemetry.map(|t| t.registry.histogram("store.fetch.latency_us")),
            fetches: telemetry.map(|t| t.registry.counter("store.fetch.samples")),
            decoded: telemetry.map(|t| {
                [
                    t.registry.counter("store.decode.raw"),
                    t.registry.counter("store.decode.gzip"),
                ]
            }),
        })
    }

    /// The store manifest.
    pub fn manifest(&self) -> &StoreManifest {
        &self.manifest
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Fetches global sample `idx` with full typed-error reporting.
    pub fn fetch_verified(&self, idx: usize) -> Result<Vec<u8>> {
        let mut buf = Vec::new();
        self.fetch_verified_into(idx, &mut buf)?;
        Ok(buf)
    }

    /// The shard holding global sample `idx`, and the sample's index
    /// within it.
    fn locate(&self, idx: usize) -> Result<(&ShardReader, usize)> {
        let (meta, local) = self
            .manifest
            .locate(idx as u64)
            .ok_or(StoreError::OutOfRange {
                idx,
                len: self.manifest.total_samples() as usize,
            })?;
        Ok((&self.readers[meta.id as usize], local as usize))
    }

    /// [`ShardSource::fetch_verified`] into a caller-provided buffer,
    /// replacing its contents.
    fn fetch_verified_into(&self, idx: usize, buf: &mut Vec<u8>) -> Result<()> {
        let started = Instant::now();
        let (reader, local) = self.locate(idx)?;
        reader.fetch_into(local, buf)?;
        self.account(started, buf.len() as u64, reader.encoding(local));
        Ok(())
    }

    /// Books one entry read since `started`: `raw_len` decoded bytes
    /// into `bytes_read`, the `store.fetch.*` instruments, and the
    /// entry's `store.decode.*` counter — at read time, whichever
    /// thread unpacks it later.
    fn account(&self, started: Instant, raw_len: u64, encoding: Option<PayloadEncoding>) {
        self.read.fetch_add(raw_len, Ordering::Relaxed);
        if let Some(h) = &self.fetch_us {
            h.record(started.elapsed().as_micros() as u64);
        }
        if let Some(c) = &self.fetches {
            c.inc();
        }
        if let (Some(decoded), Some(enc)) = (&self.decoded, encoding) {
            let slot = match enc {
                PayloadEncoding::Raw => &decoded[0],
                PayloadEncoding::Gzip => &decoded[1],
            };
            slot.inc();
        }
    }

    /// Verifies the whole store: each shard file's CRC against the
    /// manifest, then every sample payload's CRC against the footer
    /// index. Returns the number of samples verified.
    pub fn verify(&self) -> Result<u64> {
        for meta in &self.manifest.shards {
            let computed = file_crc32(&self.dir.join(&meta.file))?;
            if computed != meta.crc32 {
                return Err(StoreError::Manifest(format!(
                    "shard {} file CRC mismatch (computed {computed:#010x}, manifest {:#010x})",
                    meta.file, meta.crc32
                )));
            }
        }
        for reader in &self.readers {
            reader.verify()?;
        }
        Ok(self.manifest.total_samples())
    }
}

impl SampleSource for ShardSource {
    fn len(&self) -> usize {
        self.manifest.total_samples() as usize
    }

    fn fetch_into(&self, idx: usize, buf: &mut Vec<u8>) -> sciml_pipeline::Result<()> {
        Ok(self.fetch_verified_into(idx, buf)?)
    }

    fn fetch_stored_into(
        &self,
        idx: usize,
        buf: &mut Vec<u8>,
    ) -> sciml_pipeline::Result<Option<Stored>> {
        let started = Instant::now();
        let (reader, local) = self.locate(idx)?;
        let stored = reader.read_into(local, buf)?;
        self.account(started, u64::from(stored.raw_len), reader.encoding(local));
        Ok(Some(stored))
    }

    fn bytes_read(&self) -> u64 {
        self.read.load(Ordering::Relaxed)
    }
}

/// The read path over an in-progress staging run: samples in
/// already-staged shards are served from the node-local copy; the rest
/// transparently fall through to the backing source. Built via
/// [`Stager::source`](crate::stager::Stager::source).
pub struct StagingSource {
    backing: Arc<dyn SampleSource>,
    shared: Arc<Shared>,
    read: AtomicU64,
}

impl StagingSource {
    pub(crate) fn over(backing: Arc<dyn SampleSource>, shared: Arc<Shared>) -> Self {
        Self {
            backing,
            shared,
            read: AtomicU64::new(0),
        }
    }

    /// Fetches served from staged local shards so far.
    pub fn local_hits(&self) -> u64 {
        self.shared.metrics.local_hits.get()
    }

    /// Fetches that fell through to the backing source so far.
    pub fn fallthroughs(&self) -> u64 {
        self.shared.metrics.fallthrough.get()
    }

    /// Fetches global sample `idx` with full typed-error reporting.
    pub fn fetch_verified(&self, idx: usize) -> Result<Vec<u8>> {
        let mut buf = Vec::new();
        self.fetch_verified_into(idx, &mut buf)?;
        Ok(buf)
    }

    /// [`StagingSource::fetch_verified`] into a caller-provided buffer,
    /// replacing its contents.
    fn fetch_verified_into(&self, idx: usize, buf: &mut Vec<u8>) -> Result<()> {
        self.route(
            idx,
            buf,
            |reader, local, buf| reader.fetch_into(local, buf),
            |backing, buf| backing.fetch_into(idx, buf),
        )?;
        self.read.fetch_add(buf.len() as u64, Ordering::Relaxed);
        Ok(())
    }

    /// Runs one fetch of global sample `idx` where it can be served:
    /// `staged` against the local reader of a staged shard, with the
    /// sample's index in it, else `fall_through` against the backing
    /// source.
    fn route<T>(
        &self,
        idx: usize,
        buf: &mut Vec<u8>,
        staged: impl FnOnce(&ShardReader, usize, &mut Vec<u8>) -> Result<T>,
        fall_through: impl FnOnce(&dyn SampleSource, &mut Vec<u8>) -> sciml_pipeline::Result<T>,
    ) -> Result<T> {
        let total = self.shared.total_samples() as usize;
        let shard = self
            .shared
            .shard_for(idx as u64)
            .ok_or(StoreError::OutOfRange { idx, len: total })?;
        if self.shared.is_staged(shard) {
            let started = Instant::now();
            let reader = self.shared.reader(shard)?;
            let local = idx as u64 - self.shared.plans[shard].first;
            let got = staged(&reader, local as usize, buf)?;
            self.shared
                .metrics
                .fetch_us
                .record(started.elapsed().as_micros() as u64);
            self.shared.metrics.local_hits.inc();
            Ok(got)
        } else {
            self.shared.metrics.fallthrough.inc();
            fall_through(&*self.backing, buf).map_err(StoreError::Backing)
        }
    }
}

impl SampleSource for StagingSource {
    fn len(&self) -> usize {
        self.shared.total_samples() as usize
    }

    fn fetch_into(&self, idx: usize, buf: &mut Vec<u8>) -> sciml_pipeline::Result<()> {
        Ok(self.fetch_verified_into(idx, buf)?)
    }

    /// A staged shard answers from its local reader; anything else is
    /// the backing's own answer, so a fall-through to a packed origin
    /// is handed over as stored too.
    fn fetch_stored_into(
        &self,
        idx: usize,
        buf: &mut Vec<u8>,
    ) -> sciml_pipeline::Result<Option<Stored>> {
        let stored = self.route(
            idx,
            buf,
            |reader, local, buf| reader.read_into(local, buf).map(Some),
            |backing, buf| backing.fetch_stored_into(idx, buf),
        )?;
        let raw_len = stored.map_or(buf.len() as u64, |s| u64::from(s.raw_len));
        self.read.fetch_add(raw_len, Ordering::Relaxed);
        Ok(stored)
    }

    fn bytes_read(&self) -> u64 {
        self.read.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manifest::plan_by_count;
    use crate::shard::{pack_store, PackConfig};
    use crate::stager::{Stager, StagerConfig};
    use sciml_pipeline::source::VecSource;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "sciml_src_{tag}_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn blobs(n: usize) -> Vec<Vec<u8>> {
        (0..n)
            .map(|i| {
                (0..(i * 13) % 700)
                    .map(|j| ((i * 31 + j * 7) % 256) as u8)
                    .collect()
            })
            .collect()
    }

    #[test]
    fn shard_source_matches_origin() {
        let dir = tmp_dir("match");
        let samples = blobs(20);
        let origin = VecSource::new(samples.clone());
        let manifest = pack_store(
            &origin,
            &dir,
            PackConfig {
                target_shard_bytes: 1500,
                ..PackConfig::default()
            },
        )
        .unwrap();
        assert!(manifest.shards.len() > 1, "packing must split shards");
        let store = ShardSource::open(&dir).unwrap();
        assert_eq!(store.len(), 20);
        for (i, want) in samples.iter().enumerate() {
            assert_eq!(&SampleSource::fetch(&store, i).unwrap(), want);
        }
        assert_eq!(store.verify().unwrap(), 20);
        assert!(store.fetch_verified(20).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn shard_source_registers_fetch_metrics() {
        let dir = tmp_dir("metrics");
        pack_store(&VecSource::new(blobs(4)), &dir, PackConfig::default()).unwrap();
        let tel = Telemetry::new();
        let store = ShardSource::open_with_telemetry(&dir, &tel).unwrap();
        for i in 0..4 {
            SampleSource::fetch(&store, i).unwrap();
        }
        let snap = tel.registry.snapshot();
        assert_eq!(snap.counter("store.fetch.samples"), 4);
        assert_eq!(snap.histogram("store.fetch.latency_us").unwrap().count, 4);
        // Every fetch lands in exactly one per-encoding decode counter.
        let decoded = snap.counter("store.decode.raw") + snap.counter("store.decode.gzip");
        assert_eq!(decoded, 4);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn staging_source_mixes_local_and_fallthrough() {
        let samples = blobs(12);
        let origin_dir = tmp_dir("mix_origin");
        let gzip = PackConfig {
            target_shard_bytes: 1500,
            encoding: crate::EncodingChoice::Gzip,
            ..PackConfig::default()
        };
        pack_store(&VecSource::new(samples.clone()), &origin_dir, gzip).unwrap();
        let origin: Arc<dyn SampleSource> = Arc::new(ShardSource::open(&origin_dir).unwrap());
        // A source with no stored form, and a gzip store: a fall-through
        // to the second hands over the origin's entry as stored.
        for (tag, backing) in [
            ("mix_vec", Arc::new(VecSource::new(samples.clone())) as _),
            ("mix_gzip", origin),
        ] {
            let dir = tmp_dir(tag);
            let stager = Stager::new(
                Arc::clone(&backing),
                plan_by_count(12, 4),
                &dir,
                StagerConfig::default(),
            )
            .unwrap();
            // Stage only the first of three shards.
            assert_eq!(stager.stage_one().unwrap(), Some(0));
            let src = stager.source();
            let (mut buf, mut raw) = (Vec::new(), Vec::new());
            for (i, want) in samples.iter().enumerate() {
                assert_eq!(&SampleSource::fetch(&src, i).unwrap(), want, "sample {i}");
                let stored = src.fetch_stored_into(i, &mut buf).unwrap();
                assert_eq!(stored.is_some(), i < 4 || tag == "mix_gzip", "sample {i}");
                let got = match stored.and_then(|s| s.unpack) {
                    Some(unpack) => {
                        unpack(&buf, &mut raw, want.len()).unwrap();
                        &raw
                    }
                    None => &buf,
                };
                assert_eq!(got, want, "{tag}: stored form of sample {i}");
            }
            assert_eq!(src.local_hits(), 8);
            assert_eq!(src.fallthroughs(), 16);
            let total: u64 = samples.iter().map(|s| s.len() as u64).sum();
            assert_eq!(src.bytes_read(), 2 * total);
            std::fs::remove_dir_all(&dir).ok();
        }
        std::fs::remove_dir_all(&origin_dir).ok();
    }
}
