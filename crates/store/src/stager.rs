//! Background staging manager: copies shard-sized sample ranges from a
//! backing [`SampleSource`] into a node-local directory of `.sshard`
//! files, journaling completed shards so a restarted job resumes
//! instead of re-fetching.
//!
//! Per-shard state machine (one `AtomicU8` per shard, CAS-claimed so
//! any number of workers cooperate without a scheduler lock):
//!
//! ```text
//!             claim (CAS)            write + journal
//!  PENDING ──────────────► INFLIGHT ────────────────► STAGED
//!     ▲                        │                        ▲
//!     │ transient error,       │ retries exhausted      │ journal replay
//!     │ retry w/ backoff       ▼                        │ (CRC-verified)
//!     └──────────────────── FAILED          (on restart)┘
//! ```
//!
//! In-flight bytes are bounded by a `Mutex` + `Condvar` budget so a
//! wide worker pool cannot buffer an unbounded slice of the dataset in
//! memory while the local disk keeps up.

use crate::manifest::{JournalEntry, ShardMeta, ShardPlan, StagingJournal, StoreManifest};
use crate::shard::{
    encode_entry, shard_file_name, write_shard, EncodingChoice, PayloadEncoding, ShardReader,
};
use crate::{Result, StoreError};
use parking_lot::{Condvar, Mutex};
use sciml_compress::Level;
use sciml_obs::{Counter, Gauge, Histogram, MetricsRegistry, Telemetry};
use sciml_pipeline::source::{SampleSource, Stored, StoredSample};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const ST_PENDING: u8 = 0;
const ST_INFLIGHT: u8 = 1;
const ST_STAGED: u8 = 2;
const ST_FAILED: u8 = 3;

/// Staging instruments. Registered under `store.*` names when a
/// registry is supplied; otherwise standalone (still counted, just not
/// exported with a snapshot).
#[derive(Debug, Clone)]
pub(crate) struct StagingMetrics {
    pub(crate) shards_staged: Arc<Counter>,
    pub(crate) bytes_staged: Arc<Counter>,
    /// Entries copied as the backing stored them, and entries fetched
    /// decoded and encoded again: which route the stager took.
    pub(crate) entries_verbatim: Arc<Counter>,
    pub(crate) entries_reencoded: Arc<Counter>,
    pub(crate) shards_resumed: Arc<Counter>,
    pub(crate) retries: Arc<Counter>,
    pub(crate) shards_failed: Arc<Counter>,
    pub(crate) progress_pct: Arc<Gauge>,
    pub(crate) shard_us: Arc<Histogram>,
    pub(crate) local_hits: Arc<Counter>,
    pub(crate) fallthrough: Arc<Counter>,
    pub(crate) fetch_us: Arc<Histogram>,
}

impl StagingMetrics {
    fn registered(reg: &MetricsRegistry) -> Self {
        Self {
            shards_staged: reg.counter("store.staging.shards_staged"),
            bytes_staged: reg.counter("store.staging.bytes_staged"),
            entries_verbatim: reg.counter("store.staging.entries_verbatim"),
            entries_reencoded: reg.counter("store.staging.entries_reencoded"),
            shards_resumed: reg.counter("store.staging.shards_resumed"),
            retries: reg.counter("store.staging.retries"),
            shards_failed: reg.counter("store.staging.shards_failed"),
            progress_pct: reg.gauge("store.staging.progress_pct"),
            shard_us: reg.histogram("store.staging.shard_us"),
            local_hits: reg.counter("store.staging.local_hits"),
            fallthrough: reg.counter("store.staging.fallthrough"),
            fetch_us: reg.histogram("store.staging.fetch_us"),
        }
    }
}

/// Per-shard staging state shared between the [`Stager`] and any
/// [`StagingSource`](crate::source::StagingSource) views over it.
pub(crate) struct Shared {
    pub(crate) dir: PathBuf,
    pub(crate) plans: Vec<ShardPlan>,
    states: Vec<AtomicU8>,
    staged_file_bytes: Vec<AtomicU64>,
    /// CRC of each staged shard file (from the write or journal replay),
    /// used to finalize a `store.manifest` once every shard is staged.
    staged_crcs: Vec<AtomicU32>,
    readers: Vec<OnceLock<Arc<ShardReader>>>,
    manifest_written: AtomicBool,
    pub(crate) metrics: StagingMetrics,
}

impl Shared {
    /// Shard (by position in `plans`) containing global sample `idx`.
    pub(crate) fn shard_for(&self, idx: u64) -> Option<usize> {
        let pos = self.plans.partition_point(|p| p.first + p.count <= idx);
        let plan = self.plans.get(pos)?;
        (idx >= plan.first && idx < plan.first + plan.count).then_some(pos)
    }

    /// Total samples covered by the staging plan.
    pub(crate) fn total_samples(&self) -> u64 {
        self.plans.iter().map(|p| p.count).sum()
    }

    pub(crate) fn is_staged(&self, shard: usize) -> bool {
        self.states[shard].load(Ordering::Acquire) == ST_STAGED
    }

    fn mark(&self, shard: usize, state: u8) {
        self.states[shard].store(state, Ordering::Release);
    }

    fn update_progress_gauge(&self) {
        let staged = self.staged_count();
        let total = self.plans.len().max(1);
        self.metrics.progress_pct.set((staged * 100 / total) as i64);
    }

    fn staged_count(&self) -> usize {
        self.states
            .iter()
            .filter(|s| s.load(Ordering::Relaxed) == ST_STAGED)
            .count()
    }

    /// Opens (once) and returns the reader for a staged shard.
    pub(crate) fn reader(&self, shard: usize) -> Result<Arc<ShardReader>> {
        if let Some(r) = self.readers[shard].get() {
            return Ok(Arc::clone(r));
        }
        let opened = Arc::new(ShardReader::open(
            self.dir.join(shard_file_name(self.plans[shard].id)),
        )?);
        // Another thread may have won the race and its reader stays in
        // the cell; this one reads the same file and serves this fetch.
        let _ = self.readers[shard].set(Arc::clone(&opened));
        Ok(opened)
    }
}

/// Tuning for the staging manager.
#[derive(Debug, Clone, Copy)]
pub struct StagerConfig {
    /// Background worker threads for [`Stager::spawn_workers`].
    pub workers: usize,
    /// Upper bound on sample bytes held in memory by in-flight shard
    /// copies. A shard larger than the whole budget still proceeds when
    /// it is the only one in flight.
    pub max_inflight_bytes: u64,
    /// Extra attempts per shard after the first failure.
    pub max_retries: u32,
    /// Base backoff after a failed attempt; doubles per retry.
    pub retry_backoff: Duration,
    /// Payload encoding for staged shards. `None` mirrors each plan's
    /// encoding (what the exporting store was packed with): a backing
    /// that offers its stored entries
    /// ([`SampleSource::fetch_stored_into`]) has them copied as they are,
    /// any other is fetched and encoded under the plan's policy. `Some`
    /// overrides the policy for every shard, so every entry is fetched
    /// and encoded again.
    pub encoding: Option<EncodingChoice>,
}

/// Compression effort for the gzip payloads the stager encodes itself;
/// an entry copied as stored keeps the effort it was packed with.
const STAGE_LEVEL: Level = Level::Fast;

impl Default for StagerConfig {
    fn default() -> Self {
        Self {
            workers: 2,
            max_inflight_bytes: 256 * 1024 * 1024,
            max_retries: 3,
            retry_backoff: Duration::from_millis(10),
            encoding: None,
        }
    }
}

/// Point-in-time staging progress.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StagingProgress {
    /// Shards in the plan.
    pub total_shards: usize,
    /// Shards staged (including resumed ones).
    pub staged_shards: usize,
    /// Shards that exhausted their retry budget.
    pub failed_shards: usize,
    /// Bytes of staged shard files on local disk.
    pub staged_bytes: u64,
    /// Entries this run copied as the backing stored them.
    pub verbatim_entries: u64,
    /// Entries this run fetched decoded and encoded again.
    pub reencoded_entries: u64,
}

impl StagingProgress {
    /// True when every shard is staged.
    pub fn complete(&self) -> bool {
        self.staged_shards == self.total_shards
    }
}

struct StagerInner {
    shared: Arc<Shared>,
    backing: Arc<dyn SampleSource>,
    config: StagerConfig,
    journal: Mutex<StagingJournal>,
    inflight_bytes: Mutex<u64>,
    budget_cv: Condvar,
    stop: AtomicBool,
    workers: Mutex<Vec<JoinHandle<Result<()>>>>,
    telemetry: Telemetry,
}

/// The staging manager. Cheap to clone — all clones drive the same
/// shard state machine, so extra threads can simply call
/// [`Stager::stage_one`] in a loop to add staging bandwidth.
#[derive(Clone)]
pub struct Stager {
    inner: Arc<StagerInner>,
}

impl std::fmt::Debug for Stager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Stager")
            .field("dir", &self.inner.shared.dir)
            .field("progress", &self.progress())
            .finish_non_exhaustive()
    }
}

impl Stager {
    /// Creates a stager copying `plans` from `backing` into
    /// `staging_dir`, resuming from any journal already there.
    pub fn new(
        backing: Arc<dyn SampleSource>,
        plans: Vec<ShardPlan>,
        staging_dir: impl Into<PathBuf>,
        config: StagerConfig,
    ) -> Result<Self> {
        Self::with_telemetry(backing, plans, staging_dir, config, Telemetry::disabled())
    }

    /// [`Stager::new`] with staging metrics registered in
    /// `telemetry.registry` and per-shard spans on its tracer.
    pub fn with_telemetry(
        backing: Arc<dyn SampleSource>,
        plans: Vec<ShardPlan>,
        staging_dir: impl Into<PathBuf>,
        config: StagerConfig,
        telemetry: Telemetry,
    ) -> Result<Self> {
        let dir: PathBuf = staging_dir.into();
        // Plans may come off the wire: every sum is checked, and the
        // backing's length bounds every shard before anything is sized.
        let mut planned = 0u64;
        for p in &plans {
            if p.first != planned || p.count == 0 {
                return Err(StoreError::Manifest(
                    "staging plan must be contiguous from sample 0 with non-empty shards".into(),
                ));
            }
            planned = p.first.checked_add(p.count).ok_or_else(|| {
                StoreError::Manifest(format!("staging plan shard {} ends past u64::MAX", p.id))
            })?;
        }
        if planned != backing.len() as u64 {
            return Err(StoreError::Manifest(format!(
                "staging plan covers {planned} samples but backing source has {}",
                backing.len()
            )));
        }

        let journal = StagingJournal::open(&dir)?;
        let metrics = StagingMetrics::registered(&telemetry.registry);
        let shared = Arc::new(Shared {
            states: plans.iter().map(|_| AtomicU8::new(ST_PENDING)).collect(),
            staged_file_bytes: plans.iter().map(|_| AtomicU64::new(0)).collect(),
            staged_crcs: plans.iter().map(|_| AtomicU32::new(0)).collect(),
            readers: plans.iter().map(|_| OnceLock::new()).collect(),
            manifest_written: AtomicBool::new(false),
            dir: dir.clone(),
            plans,
            metrics,
        });

        // Resume: trust only journal entries whose staged file still
        // matches its recorded CRC; everything else stages again.
        let id_to_pos: std::collections::HashMap<u32, usize> = shared
            .plans
            .iter()
            .enumerate()
            .map(|(pos, p)| (p.id, pos))
            .collect();
        for entry in journal.replay(&dir, shard_file_name) {
            if let Some(&pos) = id_to_pos.get(&entry.id) {
                shared.mark(pos, ST_STAGED);
                shared.staged_crcs[pos].store(entry.crc32, Ordering::Relaxed);
                if let Ok(md) = std::fs::metadata(dir.join(shard_file_name(entry.id))) {
                    shared.staged_file_bytes[pos].store(md.len(), Ordering::Relaxed);
                }
                shared.metrics.shards_resumed.inc();
            }
        }
        shared.update_progress_gauge();

        let stager = Self {
            inner: Arc::new(StagerInner {
                shared,
                backing,
                config,
                journal: Mutex::new(journal),
                inflight_bytes: Mutex::new(0),
                budget_cv: Condvar::new(),
                stop: AtomicBool::new(false),
                workers: Mutex::new(Vec::new()),
                telemetry,
            }),
        };
        // A prior run may have staged the last shard and died before the
        // manifest landed; finalize now so the dir is a full store.
        stager.finalize_if_complete()?;
        Ok(stager)
    }

    /// Writes a `store.manifest` into the staging directory once every
    /// shard is staged, turning it into a complete packed store that
    /// [`ShardSource::open`](crate::ShardSource::open) (and later
    /// staging runs) can use directly. Idempotent; no-op until then.
    fn finalize_if_complete(&self) -> Result<()> {
        let shared = &self.inner.shared;
        if shared.staged_count() != shared.plans.len()
            || shared.manifest_written.swap(true, Ordering::AcqRel)
        {
            return Ok(());
        }
        let shards = shared
            .plans
            .iter()
            .enumerate()
            .map(|(pos, p)| ShardMeta {
                id: p.id,
                file: shard_file_name(p.id),
                first: p.first,
                count: p.count,
                bytes: shared.staged_file_bytes[pos].load(Ordering::Relaxed),
                crc32: shared.staged_crcs[pos].load(Ordering::Relaxed),
                encoding: self.inner.config.encoding.unwrap_or(p.encoding),
            })
            .collect();
        StoreManifest { shards }.write_to(&shared.dir)
    }

    /// The shared staging state, for building a
    /// [`StagingSource`](crate::source::StagingSource) view.
    pub(crate) fn shared(&self) -> Arc<Shared> {
        Arc::clone(&self.inner.shared)
    }

    /// The backing source this stager copies from.
    pub(crate) fn backing(&self) -> Arc<dyn SampleSource> {
        Arc::clone(&self.inner.backing)
    }

    /// Builds the read path over this staging run: staged shards are
    /// served from the local copy, everything else falls through to the
    /// backing source.
    pub fn source(&self) -> crate::source::StagingSource {
        crate::source::StagingSource::over(self.backing(), self.shared())
    }

    /// Current progress.
    pub fn progress(&self) -> StagingProgress {
        let shared = &self.inner.shared;
        let mut staged = 0;
        let mut failed = 0;
        for s in &shared.states {
            match s.load(Ordering::Relaxed) {
                ST_STAGED => staged += 1,
                ST_FAILED => failed += 1,
                _ => {}
            }
        }
        StagingProgress {
            total_shards: shared.plans.len(),
            staged_shards: staged,
            failed_shards: failed,
            staged_bytes: shared
                .staged_file_bytes
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .sum(),
            verbatim_entries: shared.metrics.entries_verbatim.get(),
            reencoded_entries: shared.metrics.entries_reencoded.get(),
        }
    }

    /// Claims and stages the next pending shard. Returns the staged
    /// shard's id, or `None` when nothing is pending (all shards are
    /// staged, failed, in flight elsewhere, or the stager was stopped).
    pub fn stage_one(&self) -> Result<Option<u32>> {
        let inner = &self.inner;
        let Some(pos) = self.claim_next() else {
            return Ok(None);
        };
        let plan = inner.shared.plans[pos];
        if !self.acquire_budget(plan.bytes) {
            // Stopping: hand the claim back.
            inner.shared.mark(pos, ST_PENDING);
            return Ok(None);
        }
        let result = self.stage_claimed(pos, plan);
        self.release_budget(plan.bytes);
        match result {
            Ok(()) => Ok(Some(plan.id)),
            Err(e) => {
                inner.shared.mark(pos, ST_FAILED);
                inner.shared.metrics.shards_failed.inc();
                Err(e)
            }
        }
    }

    /// Stages every pending shard on the calling thread.
    pub fn run(&self) -> Result<StagingProgress> {
        while !self.inner.stop.load(Ordering::Relaxed) {
            if self.stage_one()?.is_none() {
                break;
            }
        }
        Ok(self.progress())
    }

    /// Spawns the configured number of background staging workers.
    /// Call [`Stager::join`] to collect them.
    pub fn spawn_workers(&self) -> usize {
        let n = self.inner.config.workers.max(1);
        let mut workers = self.inner.workers.lock();
        for i in 0..n {
            let stager = self.clone();
            let handle = std::thread::Builder::new()
                .name(format!("sciml-stage-{i}"))
                .spawn(move || stager.run().map(|_| ()))
                // lint:allow(no_panics): thread-spawn failure is
                // resource exhaustion at startup, not a request-path
                // condition; spawn_workers has no error channel.
                .expect("spawn staging worker");
            workers.push(handle);
        }
        n
    }

    /// Asks background workers to stop after their current shard.
    pub fn stop(&self) {
        self.inner.stop.store(true, Ordering::Relaxed);
        self.inner.budget_cv.notify_all();
    }

    /// Joins all spawned workers, returning the first staging error if
    /// any worker hit one, else the final progress.
    pub fn join(&self) -> Result<StagingProgress> {
        let handles: Vec<_> = {
            let mut workers = self.inner.workers.lock();
            workers.drain(..).collect()
        };
        let mut first_err = None;
        for h in handles {
            match h.join() {
                Ok(Ok(())) => {}
                Ok(Err(e)) => first_err = first_err.or(Some(e)),
                Err(_) => {
                    first_err =
                        first_err.or(Some(StoreError::Manifest("staging worker panicked".into())))
                }
            }
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(self.progress()),
        }
    }

    fn claim_next(&self) -> Option<usize> {
        let shared = &self.inner.shared;
        for (pos, state) in shared.states.iter().enumerate() {
            if self.inner.stop.load(Ordering::Relaxed) {
                return None;
            }
            if state
                .compare_exchange(ST_PENDING, ST_INFLIGHT, Ordering::AcqRel, Ordering::Relaxed)
                .is_ok()
            {
                return Some(pos);
            }
        }
        None
    }

    /// Blocks until `bytes` fits in the in-flight budget (a shard
    /// larger than the whole budget proceeds once it is alone). Returns
    /// `false` if the stager was stopped while waiting.
    fn acquire_budget(&self, bytes: u64) -> bool {
        let inner = &self.inner;
        let mut inflight = inner.inflight_bytes.lock();
        while *inflight > 0 && inflight.saturating_add(bytes) > inner.config.max_inflight_bytes {
            if inner.stop.load(Ordering::Relaxed) {
                return false;
            }
            inflight = inner.budget_cv.wait(inflight);
        }
        if inner.stop.load(Ordering::Relaxed) {
            return false;
        }
        *inflight = inflight.saturating_add(bytes);
        true
    }

    fn release_budget(&self, bytes: u64) {
        let mut inflight = self.inner.inflight_bytes.lock();
        *inflight = inflight.saturating_sub(bytes);
        drop(inflight);
        self.inner.budget_cv.notify_all();
    }

    /// Copies one claimed shard: collect its entries from the backing
    /// source (retrying transient failures with doubling backoff),
    /// write the local `.sshard`, then journal completion.
    fn stage_claimed(&self, pos: usize, plan: ShardPlan) -> Result<()> {
        let inner = &self.inner;
        let _span = inner.telemetry.tracer.span("staging", "stage_shard");
        let started = Instant::now();
        let encoding = inner.config.encoding.unwrap_or(plan.encoding);
        let mut attempt = 0u32;
        let (entries, verbatim) = loop {
            match self.shard_entries(&plan, encoding) {
                Ok(s) => break s,
                Err(e) => {
                    if attempt >= inner.config.max_retries {
                        return Err(StoreError::RetriesExhausted(Box::new(e)));
                    }
                    inner.shared.metrics.retries.inc();
                    std::thread::sleep(inner.config.retry_backoff * 2u32.saturating_pow(attempt));
                    attempt += 1;
                }
            }
        };
        let meta = write_shard(&inner.shared.dir, plan.id, &entries, plan.first, encoding)?;
        inner.journal.lock().append(JournalEntry {
            id: plan.id,
            crc32: meta.crc32,
        })?;
        let metrics = &inner.shared.metrics;
        inner.shared.staged_file_bytes[pos].store(meta.bytes, Ordering::Relaxed);
        inner.shared.staged_crcs[pos].store(meta.crc32, Ordering::Relaxed);
        inner.shared.mark(pos, ST_STAGED);
        metrics.shards_staged.inc();
        metrics.bytes_staged.add(meta.bytes);
        metrics.entries_verbatim.add(verbatim);
        metrics.entries_reencoded.add(meta.count - verbatim);
        metrics
            .shard_us
            .record(started.elapsed().as_micros() as u64);
        inner.shared.update_progress_gauge();
        self.finalize_if_complete()?;
        Ok(())
    }

    /// The entries of one planned shard, and how many of them are the
    /// backing's own stored bytes. Each is read from the backing once
    /// ([`SampleSource::fetch_stored_into`]). Mirroring (no configured
    /// override), an entry that arrives as stored is taken as it is —
    /// no inflate, no trial, no deflate — provided `encoding` could
    /// have produced it; everything else is unpacked from the bytes
    /// just read, where they are not the sample already, and encoded
    /// here.
    fn shard_entries(
        &self,
        plan: &ShardPlan,
        encoding: EncodingChoice,
    ) -> Result<(Vec<StoredSample>, u64)> {
        let config = &self.inner.config;
        let backing = &self.inner.backing;
        // Grown, not sized from the plan's count: a source's length can
        // be a remote claim.
        let mut entries = Vec::new();
        let mut verbatim = 0u64;
        // Stays with this loop when an entry is unpacked out of it; any
        // other entry leaves with the buffer it was read into.
        let mut buf = Vec::new();
        let admitted = |s: &Stored| {
            config.encoding.is_none()
                && PayloadEncoding::from_byte(s.encoding)
                    .is_some_and(|stored| encoding.admits(stored))
        };
        for idx in plan.first..plan.first + plan.count {
            let stored = backing
                .fetch_stored_into(idx as usize, &mut buf)
                .map_err(StoreError::Backing)?;
            entries.push(match stored {
                Some(s) if admitted(&s) => {
                    verbatim += 1;
                    StoredSample {
                        encoding: s.encoding,
                        raw_len: s.raw_len,
                        crc32: s.crc32,
                        stored: std::mem::take(&mut buf),
                    }
                }
                Some(Stored {
                    unpack: Some(unpack),
                    raw_len,
                    ..
                }) => {
                    let mut raw = Vec::new();
                    unpack(&buf, &mut raw, raw_len as usize).map_err(StoreError::Backing)?;
                    encode_entry(raw, encoding, STAGE_LEVEL)?
                }
                _ => encode_entry(std::mem::take(&mut buf), encoding, STAGE_LEVEL)?,
            });
        }
        Ok((entries, verbatim))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manifest::plan_by_count;
    use sciml_pipeline::source::VecSource;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "sciml_stager_{tag}_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn backing(n: usize) -> Arc<dyn SampleSource> {
        Arc::new(VecSource::new(
            (0..n).map(|i| vec![(i % 251) as u8; 64 + i]).collect(),
        ))
    }

    #[test]
    fn stages_everything_and_reports_progress() {
        let dir = tmp_dir("full");
        let stager = Stager::new(
            backing(10),
            plan_by_count(10, 3),
            &dir,
            StagerConfig::default(),
        )
        .unwrap();
        let progress = stager.run().unwrap();
        assert!(progress.complete());
        assert_eq!(progress.total_shards, 4);
        assert_eq!(progress.staged_shards, 4);
        assert!(progress.staged_bytes > 0);
        // Staged shards are readable and byte-identical.
        let src = stager.source();
        for i in 0..10usize {
            assert_eq!(
                sciml_pipeline::source::SampleSource::fetch(&src, i).unwrap(),
                vec![(i % 251) as u8; 64 + i]
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn completed_staging_dir_is_a_full_packed_store() {
        let dir = tmp_dir("finalize");
        let stager = Stager::new(
            backing(7),
            plan_by_count(7, 3),
            &dir,
            StagerConfig::default(),
        )
        .unwrap();
        assert!(stager.run().unwrap().complete());
        // The finalized manifest makes the staged dir directly openable
        // — no fall-through source needed anymore.
        let store = crate::ShardSource::open(&dir).unwrap();
        assert_eq!(store.verify().unwrap(), 7);
        for i in 0..7usize {
            assert_eq!(
                store.fetch_verified(i).unwrap(),
                vec![(i % 251) as u8; 64 + i]
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn background_workers_stage_concurrently() {
        let dir = tmp_dir("bg");
        let stager = Stager::new(
            backing(24),
            plan_by_count(24, 2),
            &dir,
            StagerConfig {
                workers: 4,
                ..StagerConfig::default()
            },
        )
        .unwrap();
        assert_eq!(stager.spawn_workers(), 4);
        let progress = stager.join().unwrap();
        assert!(progress.complete());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn plan_must_match_backing_length() {
        let dir = tmp_dir("mismatch");
        let err = Stager::new(
            backing(10),
            plan_by_count(8, 3),
            &dir,
            StagerConfig::default(),
        )
        .unwrap_err();
        assert!(matches!(err, StoreError::Manifest(_)));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_plan_whose_sum_wraps_is_a_typed_error() {
        // Two shards of 2^63 sum to 2^64, which wraps to the backing's
        // length of 0: refused before anything is sized from a count.
        let dir = tmp_dir("wrap");
        let half = 1u64 << 63;
        let plans = [(0, half), (half, half)]
            .into_iter()
            .enumerate()
            .map(|(id, (first, count))| ShardPlan {
                id: id as u32,
                first,
                count,
                bytes: 0,
                encoding: EncodingChoice::Raw,
            })
            .collect();
        let err = Stager::new(backing(0), plans, &dir, StagerConfig::default()).unwrap_err();
        assert!(matches!(err, StoreError::Manifest(_)), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn vanished_backing_is_a_typed_error() {
        let dir = tmp_dir("vanished");
        let missing = std::env::temp_dir().join(format!(
            "sciml_gone_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let gone: Arc<dyn SampleSource> =
            Arc::new(sciml_pipeline::source::DirSource::open(&missing, 6));
        let stager = Stager::new(
            gone,
            plan_by_count(6, 2),
            &dir,
            StagerConfig {
                max_retries: 1,
                retry_backoff: Duration::from_millis(1),
                ..StagerConfig::default()
            },
        )
        .unwrap();
        let err = stager.run().unwrap_err();
        assert!(matches!(err, StoreError::RetriesExhausted(_)));
        assert_eq!(stager.progress().failed_shards, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn budget_bounds_inflight_bytes() {
        // Budget smaller than two shards: workers must serialize, but
        // everything still stages (single oversized shard proceeds).
        let dir = tmp_dir("budget");
        let stager = Stager::new(
            backing(8),
            plan_by_count(8, 2)
                .into_iter()
                .map(|mut p| {
                    p.bytes = 1000;
                    p
                })
                .collect(),
            &dir,
            StagerConfig {
                workers: 4,
                max_inflight_bytes: 1500,
                ..StagerConfig::default()
            },
        )
        .unwrap();
        stager.spawn_workers();
        assert!(stager.join().unwrap().complete());
        std::fs::remove_dir_all(&dir).ok();
    }
}
