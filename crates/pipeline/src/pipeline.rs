//! The prefetching pipeline: readers → decode pool → batch assembly →
//! consumer.
//!
//! Batch assembly is zero-copy: each work item's position within its
//! shuffled epoch determines its batch and its slot inside that batch,
//! so decode workers write samples straight into their slot of a pooled
//! batch tensor (see [`crate::pool`]) via
//! [`DecoderPlugin::decode_into`]. There is no batcher thread and no
//! per-sample intermediate `Vec` — whichever worker fills a batch's
//! last slot sends it.

use crate::batch::{Batch, Label};
use crate::decoder::DecoderPlugin;
use crate::pool::{BufferPool, PooledBytes};
use crate::source::{SampleSource, Stored};
use crate::stats::PipelineStats;
use crate::{PipelineError, Result};
use crossbeam_channel as channel;
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use sciml_codec::CodecError;
use sciml_half::F16;
use sciml_obs::{Telemetry, Tracer};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;

/// Upper bound on a sane pool capacity: beyond this the "pool" would be
/// an unbounded leak dressed up as a cache.
const MAX_POOL_CAPACITY: usize = 65_536;

/// Pipeline configuration.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// Samples per batch.
    pub batch_size: usize,
    /// Reader threads pulling from the source.
    pub reader_threads: usize,
    /// Decoder threads running the plugin.
    pub decode_threads: usize,
    /// Prefetch window: depth of the index queue ahead of the readers
    /// and of the decoded-batch queue ahead of the consumer. The
    /// fetched-bytes queue between readers and decoders is
    /// `min(prefetch, decode_threads)` deep.
    pub prefetch: usize,
    /// Epochs to run.
    pub epochs: usize,
    /// Shuffle seed; shuffling is per epoch (seed + epoch).
    pub seed: u64,
    /// Drop the final incomplete batch of an epoch (the frameworks'
    /// `drop_remainder` behaviour). When false, a short batch is emitted.
    pub drop_remainder: bool,
    /// Buffer-pool capacity: how many idle batch tensors / fetch
    /// buffers the pool retains for reuse. `None` (the default) derives
    /// `prefetch + 2`, enough for every in-flight batch plus the one
    /// the consumer holds; `Some(0)` disables pooling (every checkout
    /// allocates — the per-sample-alloc baseline).
    pub pool_capacity: Option<usize>,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        Self {
            batch_size: 4,
            reader_threads: 2,
            decode_threads: 2,
            prefetch: 8,
            epochs: 1,
            seed: 0,
            drop_remainder: false,
            pool_capacity: None,
        }
    }
}

impl PipelineConfig {
    /// The pool capacity this config resolves to.
    pub fn effective_pool_capacity(&self) -> usize {
        self.pool_capacity.unwrap_or(self.prefetch + 2)
    }
}

/// One in-flight batch being assembled in place. Decode workers write
/// disjoint sample slots of the pooled tensor through `base`; the
/// `meta` mutex serializes slot bookkeeping and publishes the slot
/// writes (release on unlock, acquire on lock) to whichever worker
/// observes the batch complete and finishes it.
struct BatchBuild {
    epoch: usize,
    batch_id: usize,
    /// Samples this batch will hold (`batch_size`, or the epoch tail).
    expected: usize,
    sample_len: usize,
    /// Base of the tensor's storage. Stable: the tensor is sized at
    /// checkout and never reallocated while the build is open.
    base: *mut F16,
    /// The pooled tensor itself, taken exactly once on completion.
    data: Mutex<Option<crate::pool::PooledTensor>>,
    meta: Mutex<BuildMeta>,
}

struct BuildMeta {
    labels: Vec<Option<Label>>,
    indices: Vec<usize>,
    filled: usize,
}

// SAFETY: `base` is only dereferenced via `slot_mut`, whose callers
// hold exclusive ownership of disjoint slots (each (epoch, pos) work
// item exists exactly once), and the pointee outlives the build (the
// tensor is held in `data` until completion).
unsafe impl Send for BatchBuild {}
// SAFETY: shared access is `&self`-safe for the same reason as Send
// above — all mutation through `base` targets caller-exclusive disjoint
// slots, and the `data`/`meta` fields are behind mutexes.
unsafe impl Sync for BatchBuild {}

impl BatchBuild {
    /// The mutable slot for sample `slot`.
    ///
    /// # Safety
    /// The caller must be the only writer of `slot` for this build's
    /// lifetime, and `slot < expected`. The pipeline guarantees both:
    /// the index generator emits each position exactly once.
    // The &self → &mut escape is the point: concurrent workers write
    // disjoint slots through the shared build (see the Send/Sync
    // SAFETY note above); exclusivity is the caller's obligation.
    #[allow(clippy::mut_from_ref)]
    unsafe fn slot_mut(&self, slot: usize) -> &mut [F16] {
        debug_assert!(slot < self.expected);
        std::slice::from_raw_parts_mut(self.base.add(slot * self.sample_len), self.sample_len)
    }

    /// Consumes the build into a deliverable batch. Caller must have
    /// observed `filled == expected` under the meta lock.
    fn finish(&self) -> Batch {
        let data = self
            .data
            .lock()
            .take()
            // lint:allow(no_panics): completion invariant — the last
            // worker to fill a slot finishes the build exactly once.
            .expect("batch finished exactly once");
        let mut meta = self.meta.lock();
        let labels = meta
            .labels
            .iter_mut()
            // lint:allow(no_panics): caller observed filled == expected
            // under the meta lock, so every label slot is Some.
            .map(|l| l.take().expect("every slot filled"))
            .collect();
        Batch {
            data,
            sample_len: self.sample_len,
            labels,
            indices: std::mem::take(&mut meta.indices),
            epoch: self.epoch,
        }
    }
}

/// Shared assembly state: the set of open builds plus the sample shape,
/// learned from the first decoded sample.
struct Assembler {
    batch_size: usize,
    n: usize,
    pool: Arc<BufferPool>,
    sample_len: OnceLock<usize>,
    open: Mutex<Vec<Arc<BatchBuild>>>,
}

impl Assembler {
    /// The build for `(epoch, batch_id)`, creating it (and checking a
    /// tensor out of the pool) on first touch.
    fn build_for(&self, epoch: usize, batch_id: usize, sample_len: usize) -> Arc<BatchBuild> {
        let mut open = self.open.lock();
        if let Some(b) = open
            .iter()
            .find(|b| b.epoch == epoch && b.batch_id == batch_id)
        {
            return Arc::clone(b);
        }
        let expected = self.batch_size.min(self.n - batch_id * self.batch_size);
        let mut tensor = self.pool.checkout_tensor(expected * sample_len);
        let base = tensor.as_mut_ptr();
        let b = Arc::new(BatchBuild {
            epoch,
            batch_id,
            expected,
            sample_len,
            base,
            data: Mutex::new(Some(tensor)),
            meta: Mutex::new(BuildMeta {
                // lint:allow(no_alloc_hot_loop): per-batch build metadata, not per-sample
                labels: vec![None; expected],
                // lint:allow(no_alloc_hot_loop): per-batch build metadata, not per-sample
                indices: vec![0; expected],
                filled: 0,
            }),
        });
        open.push(Arc::clone(&b));
        b
    }

    fn remove(&self, epoch: usize, batch_id: usize) {
        let mut open = self.open.lock();
        if let Some(i) = open
            .iter()
            .position(|b| b.epoch == epoch && b.batch_id == batch_id)
        {
            open.swap_remove(i);
        }
    }
}

/// Decodes one sample into its slot of the (epoch, batch_id) build,
/// in place. The sample shape is bootstrapped from the first decoded
/// sample — the only decode of a run that allocates a tensor; every
/// later sample goes through [`DecoderPlugin::decode_into`].
fn decode_into_slot(
    plugin: &dyn DecoderPlugin,
    bytes: &[u8],
    assembler: &Assembler,
    epoch: usize,
    batch_id: usize,
    slot: usize,
) -> Result<(Arc<BatchBuild>, Label)> {
    match assembler.sample_len.get() {
        Some(&sample_len) => {
            let build = assembler.build_for(epoch, batch_id, sample_len);
            // SAFETY: this work item is the unique writer of `slot`.
            let out = unsafe { build.slot_mut(slot) };
            let label = plugin.decode_into(bytes, out)?;
            Ok((build, label))
        }
        None => {
            let d = plugin.decode(bytes)?;
            let sample_len = *assembler.sample_len.get_or_init(|| d.data.len());
            if d.data.len() != sample_len {
                return Err(
                    CodecError::Inconsistent("sample length changed between samples").into(),
                );
            }
            let build = assembler.build_for(epoch, batch_id, sample_len);
            // SAFETY: this work item is the unique writer of `slot`.
            let out = unsafe { build.slot_mut(slot) };
            out.copy_from_slice(&d.data);
            Ok((build, d.label))
        }
    }
}

/// One sample between a reader and a decode thread: its place in the
/// schedule, the bytes the source left in a pool buffer, and — when
/// those are an entry as stored — what finishes them.
struct Fetched {
    epoch: usize,
    pos: usize,
    idx: usize,
    bytes: PooledBytes,
    stored: Option<Stored>,
}

/// One decode thread.
struct DecodeWorker {
    plugin: Arc<dyn DecoderPlugin>,
    stats: Arc<PipelineStats>,
    tracer: Arc<Tracer>,
    assembler: Arc<Assembler>,
    cfg: PipelineConfig,
}

impl DecodeWorker {
    /// A decode thread's whole item: every transformation of the
    /// sample's bytes. An entry that arrived as stored is unpacked into
    /// `raw`, this thread's buffer, and its own goes back to the pool;
    /// then the plugin decodes into the sample's batch slot. A failed
    /// unpack is the source's typed error, as if the reader had met it.
    fn decode_item(
        &self,
        item: Fetched,
        batch_id: usize,
        slot: usize,
        raw: &mut Vec<u8>,
    ) -> Result<(Arc<BatchBuild>, Label)> {
        let bytes = item.bytes;
        let bytes: &[u8] = match item.stored {
            Some(Stored {
                unpack: Some(unpack),
                raw_len,
                ..
            }) => {
                let _span = self.tracer.span("pipeline", "unpack");
                self.stats
                    .unpack_ns
                    .time(|| unpack(&bytes, raw, raw_len as usize))
                    .inspect_err(|_| self.stats.fetch_errors.inc())?;
                drop(bytes); // recycle the fetch buffer promptly
                raw
            }
            _ => &bytes,
        };
        decode_into_slot(
            &*self.plugin,
            bytes,
            &self.assembler,
            item.epoch,
            batch_id,
            slot,
        )
        .inspect_err(|_| self.stats.decode_errors.inc())
    }

    /// Decodes items until the queue closes or the run ends in an
    /// error, sending each batch this thread completes.
    fn run(self, raw_rx: channel::Receiver<Fetched>, batch_tx: channel::Sender<Result<Batch>>) {
        // One sample-sized buffer kept for the run: where entries that
        // arrive as stored are unpacked.
        let mut raw = Vec::new();
        while let Ok(item) = raw_rx.recv() {
            let (epoch, idx) = (item.epoch, item.idx);
            let batch_id = item.pos / self.cfg.batch_size;
            let slot = item.pos % self.cfg.batch_size;
            let decoded = {
                let _span = self.tracer.span("pipeline", "decode");
                self.stats
                    .decode_ns
                    .time(|| self.decode_item(item, batch_id, slot, &mut raw))
            };
            let (build, label) = match decoded {
                Ok(v) => v,
                Err(e) => {
                    let _ = batch_tx.send(Err(e));
                    return;
                }
            };
            let completed = {
                let mut meta = build.meta.lock();
                meta.labels[slot] = Some(label);
                meta.indices[slot] = idx;
                meta.filled += 1;
                meta.filled == build.expected
            };
            if completed {
                self.assembler.remove(epoch, batch_id);
                if self.cfg.drop_remainder && build.expected < self.cfg.batch_size {
                    // Epoch tail under drop_remainder: never emitted;
                    // the tensor returns to the pool when the build
                    // drops.
                    continue;
                }
                let _span = self.tracer.span("pipeline", "batch");
                let batch = build.finish();
                self.stats.batches.inc();
                if batch_tx.send(Ok(batch)).is_err() {
                    return;
                }
                self.stats.batch_depth.set(batch_tx.len() as i64);
            }
        }
    }
}

/// A running pipeline: iterate [`Pipeline::next_batch`] until `None`.
pub struct Pipeline {
    rx: Option<channel::Receiver<Result<Batch>>>,
    stats: Arc<PipelineStats>,
    pool: Arc<BufferPool>,
    tracer: Arc<Tracer>,
    workers: Vec<JoinHandle<()>>,
    finished: bool,
}

impl Pipeline {
    /// Launches the worker threads over a source and a decoder plugin,
    /// with private (untraced) telemetry. Use [`Pipeline::launch_with`]
    /// to record into a shared registry / tracer.
    pub fn launch(
        source: Arc<dyn SampleSource>,
        plugin: Arc<dyn DecoderPlugin>,
        cfg: PipelineConfig,
    ) -> Result<Self> {
        Self::launch_with(source, plugin, cfg, Telemetry::disabled())
    }

    /// Launches the worker threads, registering stage metrics in
    /// `telemetry.registry` (under `pipeline.*` names) and emitting
    /// `fetch`/`decode`/`batch`/`wait` spans to `telemetry.tracer` when
    /// it is enabled.
    pub fn launch_with(
        source: Arc<dyn SampleSource>,
        plugin: Arc<dyn DecoderPlugin>,
        cfg: PipelineConfig,
        telemetry: Telemetry,
    ) -> Result<Self> {
        if cfg.batch_size == 0 {
            return Err(PipelineError::Config("batch_size must be positive"));
        }
        if cfg.reader_threads == 0 || cfg.decode_threads == 0 {
            return Err(PipelineError::Config("need at least one thread per stage"));
        }
        if cfg.effective_pool_capacity() > MAX_POOL_CAPACITY {
            return Err(PipelineError::Config(
                "pool_capacity implausibly large (max 65536)",
            ));
        }
        let stats = PipelineStats::with_registry(&telemetry.registry);
        let pool = BufferPool::with_registry(cfg.effective_pool_capacity(), &telemetry.registry);
        let tracer = telemetry.tracer;
        let n = source.len();

        // Stage 1: index generator -> (epoch, position, index) work
        // items. The position within the shuffled epoch is the batch
        // schedule: batch `pos / batch_size`, slot `pos % batch_size` —
        // fixed at generation time, so downstream stages can run fully
        // out of order and the batch composition is still deterministic.
        let (idx_tx, idx_rx) = channel::bounded::<(usize, usize, usize)>(cfg.prefetch.max(1));
        // Stage 2: fetched bytes in recycled pool buffers. One parked
        // sample per decoder keeps every decoder fed (each reader also
        // holds the sample it is about to send); a deeper queue moved no
        // workload's rate, and once readers outpace decoders it parks
        // `prefetch` undecoded samples and lets decoders run batches
        // ahead of a stalled reader, opening extra batch tensors. The
        // prefetch window proper is the decoded-batch queue below.
        let (raw_tx, raw_rx) =
            channel::bounded::<Fetched>(cfg.prefetch.min(cfg.decode_threads).max(1));
        // Stage 3: assembled batches to the consumer. There is no
        // batcher thread: decode workers write samples into their batch
        // slot in place, and whichever worker completes a batch sends it.
        let (batch_tx, batch_rx) = channel::bounded::<Result<Batch>>(cfg.prefetch.max(1));

        let assembler = Arc::new(Assembler {
            batch_size: cfg.batch_size,
            n,
            pool: Arc::clone(&pool),
            sample_len: OnceLock::new(),
            open: Mutex::new(Vec::new()),
        });

        let mut workers = Vec::new();

        // Index generator thread: shuffled order, exactly once per epoch.
        {
            let cfg = cfg.clone();
            workers.push(std::thread::spawn(move || {
                for epoch in 0..cfg.epochs {
                    let mut order: Vec<usize> = (0..n).collect();
                    let mut rng = StdRng::seed_from_u64(cfg.seed.wrapping_add(epoch as u64));
                    order.shuffle(&mut rng);
                    for (pos, idx) in order.into_iter().enumerate() {
                        if idx_tx.send((epoch, pos, idx)).is_err() {
                            return;
                        }
                    }
                }
            }));
        }

        // Reader threads: fetch bytes into recycled buffers, as the
        // source holds them — a reader waits on I/O and checks what it
        // read; the decode pool transforms it.
        for _ in 0..cfg.reader_threads {
            let idx_rx = idx_rx.clone();
            let raw_tx = raw_tx.clone();
            let batch_tx = batch_tx.clone();
            let source = Arc::clone(&source);
            let stats = Arc::clone(&stats);
            let tracer = Arc::clone(&tracer);
            let pool = Arc::clone(&pool);
            workers.push(std::thread::spawn(move || {
                while let Ok((epoch, pos, idx)) = idx_rx.recv() {
                    let mut bytes = pool.checkout_bytes();
                    // Each fetch roots a fresh trace: a remote source
                    // sees the installed context and propagates it over
                    // the wire, so server-side spans join this trace.
                    let fetched = {
                        let _span = tracer.span_root("pipeline", "fetch");
                        stats
                            .fetch_ns
                            .time(|| source.fetch_stored_into(idx, &mut bytes))
                    };
                    match fetched {
                        Ok(stored) => {
                            let len = stored.map_or(bytes.len() as u64, |s| u64::from(s.raw_len));
                            stats.bytes.add(len);
                            stats.samples.inc();
                            let item = Fetched {
                                epoch,
                                pos,
                                idx,
                                bytes,
                                stored,
                            };
                            if raw_tx.send(item).is_err() {
                                return;
                            }
                            stats.raw_depth.set(raw_tx.len() as i64);
                        }
                        Err(e) => {
                            // Surface the typed error to the consumer;
                            // this run is over.
                            stats.fetch_errors.inc();
                            let _ = batch_tx.send(Err(e));
                            return;
                        }
                    }
                }
            }));
        }
        drop(idx_rx);
        drop(raw_tx);

        // Decoder threads: unpack what arrived as stored, decode straight
        // into the sample's slot of its pooled batch tensor, then send
        // the batch if it just completed.
        for _ in 0..cfg.decode_threads {
            let raw_rx = raw_rx.clone();
            let batch_tx = batch_tx.clone();
            let worker = DecodeWorker {
                plugin: Arc::clone(&plugin),
                stats: Arc::clone(&stats),
                tracer: Arc::clone(&tracer),
                assembler: Arc::clone(&assembler),
                cfg: cfg.clone(),
            };
            workers.push(std::thread::spawn(move || worker.run(raw_rx, batch_tx)));
        }
        drop(raw_rx);
        drop(batch_tx);

        Ok(Self {
            rx: Some(batch_rx),
            stats,
            pool,
            tracer,
            workers,
            finished: false,
        })
    }

    /// Blocks for the next batch; `Ok(None)` when the run is complete.
    ///
    /// Batches arrive in completion order. With one reader and one
    /// decode thread that is the shuffled order, epoch by epoch (each
    /// batch's samples in slot order). With more than one of either, a
    /// batch can overtake the one before it, and a batch of epoch
    /// `e + 1` can arrive before the last batch of epoch `e`.
    pub fn next_batch(&mut self) -> Result<Option<Batch>> {
        if self.finished {
            return Ok(None);
        }
        // lint:allow(no_panics): `rx` is Some from construction until
        // Drop takes it; no other code path clears it.
        let rx = self.rx.as_ref().expect("receiver alive until drop");
        let got = {
            let _span = self.tracer.span("pipeline", "wait");
            self.stats.wait_ns.time(|| rx.recv())
        };
        match got {
            Ok(Ok(b)) => Ok(Some(b)),
            Ok(Err(e)) => {
                self.finished = true;
                Err(e)
            }
            Err(_) => {
                self.finished = true;
                Ok(None)
            }
        }
    }

    /// Collects every batch of the run (convenience for tests/benches).
    pub fn collect_all(mut self) -> Result<(Vec<Batch>, Arc<PipelineStats>)> {
        let mut out = Vec::new();
        while let Some(b) = self.next_batch()? {
            out.push(b);
        }
        let stats = Arc::clone(&self.stats);
        Ok((out, stats))
    }

    /// Shared stats handle.
    pub fn stats(&self) -> Arc<PipelineStats> {
        Arc::clone(&self.stats)
    }

    /// The buffer pool backing batch tensors and fetch buffers (for
    /// hit-rate / resident-byte inspection).
    pub fn pool(&self) -> Arc<BufferPool> {
        Arc::clone(&self.pool)
    }
}

impl Drop for Pipeline {
    fn drop(&mut self) {
        // Disconnect the consumer side so every worker sees a closed
        // channel and exits (a blocked `send` returns Err once the
        // receiver is gone), then join them.
        self.finished = true;
        drop(self.rx.take());
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decoder::CosmoPluginCpu;
    use crate::source::VecSource;
    use sciml_codec::cosmoflow as cf;
    use sciml_codec::Op;
    use sciml_data::cosmoflow::{CosmoFlowConfig, UniverseGenerator};

    fn tiny_dataset(n: usize) -> Arc<VecSource> {
        let mut cfg = CosmoFlowConfig::test_small();
        cfg.grid = 8;
        cfg.halos = 4;
        let g = UniverseGenerator::new(cfg);
        let blobs: Vec<Vec<u8>> = (0..n as u64)
            .map(|i| cf::encode(&g.generate(i)).to_bytes())
            .collect();
        Arc::new(VecSource::new(blobs))
    }

    fn run(n: usize, cfg: PipelineConfig) -> (Vec<Batch>, Arc<PipelineStats>) {
        let p = Pipeline::launch(
            tiny_dataset(n),
            Arc::new(CosmoPluginCpu { op: Op::Log1p }),
            cfg,
        )
        .unwrap();
        p.collect_all().unwrap()
    }

    #[test]
    fn delivers_every_sample_exactly_once_per_epoch() {
        let cfg = PipelineConfig {
            batch_size: 3,
            epochs: 2,
            ..Default::default()
        };
        let (batches, stats) = run(10, cfg);
        assert_eq!(stats.sample_count(), 20);
        for epoch in 0..2 {
            let mut seen: Vec<usize> = batches
                .iter()
                .filter(|b| b.epoch == epoch)
                .flat_map(|b| b.indices.iter().copied())
                .collect();
            seen.sort_unstable();
            assert_eq!(seen, (0..10).collect::<Vec<_>>(), "epoch {epoch}");
        }
    }

    #[test]
    fn batch_sizes_respected_with_tail() {
        let cfg = PipelineConfig {
            batch_size: 4,
            epochs: 1,
            ..Default::default()
        };
        let (batches, _) = run(10, cfg);
        let mut sizes: Vec<usize> = batches.iter().map(|b| b.len()).collect();
        sizes.sort_unstable();
        assert_eq!(sizes, vec![2, 4, 4]);
    }

    #[test]
    fn drop_remainder_drops_tail() {
        let cfg = PipelineConfig {
            batch_size: 4,
            epochs: 1,
            drop_remainder: true,
            ..Default::default()
        };
        let (batches, _) = run(10, cfg);
        assert!(batches.iter().all(|b| b.len() == 4));
        let total: usize = batches.iter().map(|b| b.len()).sum();
        assert_eq!(total, 8);
    }

    #[test]
    fn shuffling_differs_between_epochs_and_is_seeded() {
        let cfg = PipelineConfig {
            batch_size: 5,
            epochs: 2,
            reader_threads: 1,
            decode_threads: 1,
            seed: 42,
            ..Default::default()
        };
        let (batches, _) = run(16, cfg.clone());
        let delivered = |batches: &[Batch]| -> Vec<usize> {
            batches.iter().flat_map(|b| b.indices.clone()).collect()
        };
        let shuffle = |epoch: u64| {
            let mut order: Vec<usize> = (0..16).collect();
            order.shuffle(&mut StdRng::seed_from_u64(42 + epoch));
            order
        };
        assert_ne!(shuffle(0), shuffle(1), "epoch shuffles must differ");
        // One reader and one decoder deliver the (seed + epoch) shuffle in
        // order, epoch by epoch; the Figs 6-7 convergence runs train on it.
        assert_eq!(delivered(&batches), [shuffle(0), shuffle(1)].concat());
        let epochs: Vec<usize> = batches.iter().map(|b| b.epoch).collect();
        assert_eq!(epochs, [0, 0, 0, 0, 1, 1, 1, 1]);
        // Same seed reproduces the same order with single-threaded stages.
        let (batches2, _) = run(16, cfg);
        assert_eq!(delivered(&batches2), delivered(&batches));
    }

    #[test]
    fn many_threads_still_exactly_once() {
        let cfg = PipelineConfig {
            batch_size: 5,
            epochs: 3,
            reader_threads: 4,
            decode_threads: 4,
            prefetch: 2,
            ..Default::default()
        };
        let (batches, stats) = run(17, cfg);
        assert_eq!(stats.sample_count(), 51);
        let total: usize = batches.iter().map(|b| b.len()).sum();
        assert_eq!(total, 51);
    }

    #[test]
    fn decode_error_surfaces() {
        let src = Arc::new(VecSource::new(vec![b"garbage".to_vec()]));
        let tel = sciml_obs::Telemetry::disabled();
        let mut p = Pipeline::launch_with(
            src,
            Arc::new(CosmoPluginCpu { op: Op::Log1p }),
            PipelineConfig::default(),
            tel.clone(),
        )
        .unwrap();
        assert!(p.next_batch().is_err());
        // Subsequent calls return None, not hang.
        assert!(p.next_batch().unwrap().is_none());
        let snap = tel.registry.snapshot();
        assert_eq!(snap.counter("pipeline.decode_errors"), 1);
        assert_eq!(snap.counter("pipeline.fetch_errors"), 0);
    }

    /// Source that fails on one specific index.
    struct FlakySource {
        inner: Arc<VecSource>,
        bad_idx: usize,
    }

    impl crate::source::SampleSource for FlakySource {
        fn len(&self) -> usize {
            self.inner.len()
        }

        fn fetch_into(&self, idx: usize, buf: &mut Vec<u8>) -> crate::Result<()> {
            if idx == self.bad_idx {
                return Err(sciml_data::DataError::Format("injected fetch failure").into());
            }
            self.inner.fetch_into(idx, buf)
        }

        fn bytes_read(&self) -> u64 {
            self.inner.bytes_read()
        }
    }

    #[test]
    fn injected_fetch_failure_errors_and_counts() {
        let tel = sciml_obs::Telemetry::disabled();
        let src = Arc::new(FlakySource {
            inner: tiny_dataset(8),
            bad_idx: 3,
        });
        let p = Pipeline::launch_with(
            src,
            Arc::new(CosmoPluginCpu { op: Op::Log1p }),
            PipelineConfig {
                batch_size: 2,
                ..Default::default()
            },
            tel.clone(),
        )
        .unwrap();
        let err = p.collect_all().expect_err("injected failure must surface");
        assert!(
            err.to_string().contains("injected fetch failure"),
            "typed source error, got: {err}"
        );
        let snap = tel.registry.snapshot();
        assert_eq!(snap.counter("pipeline.fetch_errors"), 1);
        assert_eq!(snap.counter("pipeline.decode_errors"), 0);
    }

    /// Hands every sample over as stored — each byte one higher than in
    /// the sample — and notes which threads fetch and which unpack.
    struct StoredFormSource {
        inner: Arc<VecSource>,
    }

    static FETCHED_ON: Mutex<Vec<std::thread::ThreadId>> = Mutex::new(Vec::new());
    static UNPACKED_ON: Mutex<Vec<std::thread::ThreadId>> = Mutex::new(Vec::new());

    fn unpack_minus_one(stored: &[u8], out: &mut Vec<u8>, raw_len: usize) -> crate::Result<()> {
        UNPACKED_ON.lock().push(std::thread::current().id());
        if stored.len() != raw_len {
            return Err(sciml_data::DataError::Format("stored entry lies about its length").into());
        }
        out.clear();
        out.extend(stored.iter().map(|b| b.wrapping_sub(1)));
        Ok(())
    }

    impl crate::source::SampleSource for StoredFormSource {
        fn len(&self) -> usize {
            self.inner.len()
        }

        fn fetch_into(&self, idx: usize, buf: &mut Vec<u8>) -> crate::Result<()> {
            self.inner.fetch_into(idx, buf)
        }

        fn fetch_stored_into(
            &self,
            idx: usize,
            buf: &mut Vec<u8>,
        ) -> crate::Result<Option<Stored>> {
            FETCHED_ON.lock().push(std::thread::current().id());
            self.inner.fetch_into(idx, buf)?;
            buf.iter_mut().for_each(|b| *b = b.wrapping_add(1));
            Ok(Some(Stored {
                encoding: 0,
                // An eighth sample's entry lies about its length.
                raw_len: buf.len() as u32 + u32::from(idx == 7),
                crc32: 0,
                unpack: Some(unpack_minus_one),
            }))
        }

        fn bytes_read(&self) -> u64 {
            self.inner.bytes_read()
        }
    }

    #[test]
    fn stored_entries_are_unpacked_on_decode_threads_only() {
        let tel = sciml_obs::Telemetry::new();
        let plain = tiny_dataset(7);
        let cfg = PipelineConfig {
            batch_size: 7,
            reader_threads: 2,
            decode_threads: 2,
            epochs: 3,
            ..Default::default()
        };
        let plugin = || Arc::new(CosmoPluginCpu { op: Op::Log1p });
        let want = Pipeline::launch(plain.clone(), plugin(), cfg.clone())
            .unwrap()
            .collect_all()
            .unwrap()
            .0;
        let p = Pipeline::launch_with(
            Arc::new(StoredFormSource { inner: plain }),
            plugin(),
            cfg,
            tel.clone(),
        )
        .unwrap();
        let (got, stats) = p.collect_all().unwrap();

        // The same tensors, sample for sample.
        let by_index = |batches: &[Batch]| {
            let mut samples: Vec<(usize, usize, Vec<F16>)> = batches
                .iter()
                .flat_map(|b| {
                    (0..b.len()).map(move |i| (b.epoch, b.indices[i], b.sample(i).to_vec()))
                })
                .collect();
            samples.sort_by_key(|&(epoch, idx, _)| (epoch, idx));
            samples
        };
        assert_eq!(by_index(&got), by_index(&want));

        let (fetched_on, unpacked_on) = (FETCHED_ON.lock().clone(), UNPACKED_ON.lock().clone());
        assert_eq!((fetched_on.len(), unpacked_on.len()), (21, 21));
        assert!(
            unpacked_on.iter().all(|t| !fetched_on.contains(t)),
            "an unpack ran on a reader thread"
        );
        assert_eq!(stats.unpack_ns.count(), 21);
        assert_eq!(stats.decode_ns.count(), 21);
        // Each unpack span sits inside a decode span of its thread.
        let events = tel.tracer.events();
        let decodes: Vec<_> = events.iter().filter(|e| e.name == "decode").collect();
        let unpacks: Vec<_> = events.iter().filter(|e| e.name == "unpack").collect();
        assert_eq!(unpacks.len(), 21);
        for u in unpacks {
            assert!(
                decodes.iter().any(|d| d.tid == u.tid
                    && d.start_ns <= u.start_ns
                    && u.start_ns + u.dur_ns <= d.start_ns + d.dur_ns),
                "unpack span outside every decode span"
            );
        }

        // An eighth sample, whose entry lies: the unpack's typed error
        // ends the run from the decode thread, booked as a fetch error.
        let tel = sciml_obs::Telemetry::disabled();
        let p = Pipeline::launch_with(
            Arc::new(StoredFormSource {
                inner: tiny_dataset(8),
            }),
            plugin(),
            PipelineConfig::default(),
            tel.clone(),
        )
        .unwrap();
        let err = p.collect_all().expect_err("the lying entry must surface");
        assert!(err.to_string().contains("lies about its length"), "{err}");
        let snap = tel.registry.snapshot();
        assert_eq!(snap.counter("pipeline.fetch_errors"), 1);
        assert_eq!(snap.counter("pipeline.decode_errors"), 0);
    }

    #[test]
    fn spans_cover_stages_across_threads() {
        let tel = sciml_obs::Telemetry::new();
        let p = Pipeline::launch_with(
            tiny_dataset(12),
            Arc::new(CosmoPluginCpu { op: Op::Log1p }),
            PipelineConfig {
                reader_threads: 2,
                decode_threads: 2,
                ..Default::default()
            },
            tel.clone(),
        )
        .unwrap();
        p.collect_all().unwrap();
        let events = tel.tracer.events();
        for stage in ["fetch", "decode", "batch", "wait"] {
            assert!(
                events.iter().any(|e| e.name == stage),
                "missing '{stage}' span"
            );
        }
        let worker_tids: std::collections::BTreeSet<u64> = events
            .iter()
            .filter(|e| e.name == "fetch" || e.name == "decode")
            .map(|e| e.tid)
            .collect();
        assert!(worker_tids.len() >= 2, "spans from at least two workers");
    }

    #[test]
    fn zero_batch_size_rejected() {
        let src = tiny_dataset(1);
        let r = Pipeline::launch(
            src,
            Arc::new(CosmoPluginCpu { op: Op::Log1p }),
            PipelineConfig {
                batch_size: 0,
                ..Default::default()
            },
        );
        assert!(r.is_err());
    }

    #[test]
    fn stats_populate() {
        let cfg = PipelineConfig::default();
        let (_, stats) = run(8, cfg);
        assert!(stats.byte_count() > 0);
        assert!(stats.decode_seconds() >= 0.0);
        assert!(stats.batch_count() >= 2);
    }

    #[test]
    fn fill_once_cache_hits_its_share_of_every_shuffled_epoch() {
        use crate::source::MemoryCacheSource;
        // 16 equal samples, room for 4: epoch-shuffled exactly-once
        // traffic, which is what every reader of the cache generates.
        let blob = tiny_dataset(1).fetch(0).unwrap();
        let capacity = 4 * blob.len() as u64;
        let cache = Arc::new(MemoryCacheSource::new(
            VecSource::new(vec![blob; 16]),
            capacity,
        ));
        // One launch per epoch (same order as `epochs: 6`, which seeds
        // epoch e with seed + e) so each epoch's hits can be read off.
        for epoch in 0..6u64 {
            let before = cache.hits();
            let p = Pipeline::launch(
                Arc::clone(&cache) as Arc<dyn SampleSource>,
                Arc::new(CosmoPluginCpu { op: Op::Log1p }),
                PipelineConfig {
                    seed: 20220530 + epoch,
                    ..Default::default()
                },
            )
            .unwrap();
            p.collect_all().unwrap();
            let want = if epoch == 0 { 0 } else { 4 };
            assert_eq!(cache.hits() - before, want, "epoch {epoch}");
        }
        assert_eq!(cache.resident_bytes(), capacity);
    }

    #[test]
    fn early_drop_does_not_deadlock() {
        let mut p = Pipeline::launch(
            tiny_dataset(64),
            Arc::new(CosmoPluginCpu { op: Op::Log1p }),
            PipelineConfig {
                epochs: 4,
                prefetch: 2,
                ..Default::default()
            },
        )
        .unwrap();
        // Take one batch, then drop the pipeline mid-run.
        let _ = p.next_batch().unwrap();
        drop(p);
    }
}
