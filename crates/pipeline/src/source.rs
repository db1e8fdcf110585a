//! Sample byte sources and the host-memory cache tier.

use crate::Result;
use parking_lot::Mutex;
use sciml_compress::crc32::crc32;
use sciml_data::DataError;
use sciml_obs::{Counter, MetricsRegistry};
use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Where encoded sample bytes come from.
///
/// Implement [`SampleSource::fetch_into`]; [`SampleSource::fetch`] is
/// provided. Implementations must be thread-safe: reader threads call
/// `fetch_into` concurrently.
pub trait SampleSource: Send + Sync {
    /// Number of samples available.
    fn len(&self) -> usize;

    /// True when the source holds no samples.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Fetches the raw bytes of sample `idx` into a fresh vector.
    fn fetch(&self, idx: usize) -> Result<Vec<u8>> {
        let mut buf = Vec::new();
        self.fetch_into(idx, &mut buf)?;
        Ok(buf)
    }

    /// Fetches sample `idx` into `buf`, replacing its contents — the one
    /// data method of a source. The pipeline's readers pass recycled
    /// pool buffers here, so repeat fetches reuse one allocation; a
    /// source that receives an owned sample may move it in instead.
    fn fetch_into(&self, idx: usize, buf: &mut Vec<u8>) -> Result<()>;

    /// Fetches sample `idx` into `buf` as the source holds it, leaving
    /// any transformation of the bytes to the caller's thread. `Some`
    /// means `buf` holds the entry as stored, integrity already
    /// checked, and [`Stored::unpack`] turns it into the sample;
    /// `None` (the provided default, after a plain
    /// [`SampleSource::fetch_into`]) means `buf` holds the sample.
    /// Advances [`SampleSource::bytes_read`] by the sample's decoded
    /// length either way.
    ///
    /// The pipeline's readers call this, so that they only wait on I/O
    /// and the decode pool does the inflating; a copy that keeps the
    /// encoding — staging a packed store — takes the stored bytes as
    /// they are.
    fn fetch_stored_into(&self, idx: usize, buf: &mut Vec<u8>) -> Result<Option<Stored>> {
        self.fetch_into(idx, buf)?;
        Ok(None)
    }

    /// Total bytes read so far (for data-movement accounting).
    fn bytes_read(&self) -> u64;
}

/// Turns an entry's stored bytes into the sample: `(stored, out,
/// raw_len)`, replacing the contents of `out` with exactly `raw_len`
/// bytes or failing. A plain function of its arguments, so any thread
/// can run it without a handle on the source.
pub type Unpack = fn(&[u8], &mut Vec<u8>, usize) -> Result<()>;

/// What a source's index records about an entry it handed over as
/// stored ([`SampleSource::fetch_stored_into`]).
#[derive(Debug, Clone, Copy)]
pub struct Stored {
    /// Payload-encoding byte of the `.sshard` footer index.
    pub encoding: u8,
    /// Length of the sample once decoded.
    pub raw_len: u32,
    /// CRC-32 of the stored bytes.
    pub crc32: u32,
    /// Decodes the stored bytes; `None` where they are the sample.
    pub unpack: Option<Unpack>,
}

/// One sample as a packed store holds it: the stored bytes and what the
/// shard's footer index records about them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoredSample {
    /// Payload-encoding byte of the `.sshard` footer index.
    pub encoding: u8,
    /// Length of the sample once decoded.
    pub raw_len: u32,
    /// CRC-32 of `stored`.
    pub crc32: u32,
    /// The bytes as stored.
    pub stored: Vec<u8>,
}

/// Shared handles forward to the underlying source, so an
/// `Arc<dyn SampleSource>` (or `Arc<ConcreteSource>`) can be handed to
/// both a local pipeline and the serving layer without wrappers.
impl<S: SampleSource + ?Sized> SampleSource for Arc<S> {
    fn len(&self) -> usize {
        (**self).len()
    }

    fn is_empty(&self) -> bool {
        (**self).is_empty()
    }

    fn fetch_into(&self, idx: usize, buf: &mut Vec<u8>) -> Result<()> {
        (**self).fetch_into(idx, buf)
    }

    fn fetch_stored_into(&self, idx: usize, buf: &mut Vec<u8>) -> Result<Option<Stored>> {
        (**self).fetch_stored_into(idx, buf)
    }

    fn bytes_read(&self) -> u64 {
        (**self).bytes_read()
    }
}

/// In-memory source: one byte blob per sample.
#[derive(Debug, Default)]
pub struct VecSource {
    samples: Vec<Vec<u8>>,
    read: AtomicU64,
}

impl VecSource {
    /// Wraps pre-encoded sample blobs.
    pub fn new(samples: Vec<Vec<u8>>) -> Self {
        Self {
            samples,
            read: AtomicU64::new(0),
        }
    }
}

impl SampleSource for VecSource {
    fn len(&self) -> usize {
        self.samples.len()
    }

    fn fetch_into(&self, idx: usize, buf: &mut Vec<u8>) -> Result<()> {
        let s = self
            .samples
            .get(idx)
            .ok_or(DataError::Format("sample index out of range"))?;
        self.read.fetch_add(s.len() as u64, Ordering::Relaxed);
        buf.clear();
        buf.extend_from_slice(s);
        Ok(())
    }

    fn bytes_read(&self) -> u64 {
        self.read.load(Ordering::Relaxed)
    }
}

/// Directory source: `sample_%06d.bin` files under a root directory,
/// standing in for the shared parallel file system.
#[derive(Debug)]
pub struct DirSource {
    root: PathBuf,
    count: usize,
    read: AtomicU64,
}

impl DirSource {
    /// Opens a directory of numbered sample files.
    pub fn open(root: impl Into<PathBuf>, count: usize) -> Self {
        Self {
            root: root.into(),
            count,
            read: AtomicU64::new(0),
        }
    }

    /// File path of sample `idx`.
    pub fn path(&self, idx: usize) -> PathBuf {
        self.root.join(format!("sample_{idx:06}.bin"))
    }

    /// Writes sample files into a directory (dataset preparation).
    pub fn write_all(root: impl Into<PathBuf>, samples: &[Vec<u8>]) -> Result<Self> {
        let root = root.into();
        fs::create_dir_all(&root).map_err(DataError::Io)?;
        let src = Self::open(root, samples.len());
        for (i, s) in samples.iter().enumerate() {
            fs::write(src.path(i), s).map_err(DataError::Io)?;
        }
        Ok(src)
    }
}

impl SampleSource for DirSource {
    fn len(&self) -> usize {
        self.count
    }

    fn fetch_into(&self, idx: usize, buf: &mut Vec<u8>) -> Result<()> {
        use std::io::Read;
        if idx >= self.count {
            return Err(DataError::Format("sample index out of range").into());
        }
        buf.clear();
        let mut f = fs::File::open(self.path(idx)).map_err(DataError::Io)?;
        let n = f.read_to_end(buf).map_err(DataError::Io)?;
        self.read.fetch_add(n as u64, Ordering::Relaxed);
        Ok(())
    }

    fn bytes_read(&self) -> u64 {
        self.read.load(Ordering::Relaxed)
    }
}

/// Host-memory cache above any source — the top tier of the paper's
/// hierarchy (shared FS → node-local staging → host DRAM).
///
/// The policy is fill once, never evict: a sample is admitted on its
/// first miss while it still fits in `capacity_bytes`, and stays for
/// the life of the cache. Every reader of this tier (a [`Pipeline`]'s
/// shuffled epochs, a `Stager`'s shard sweep) touches each sample
/// exactly once per pass, and under that traffic recency predicts
/// nothing: an LRU of the same size evicts each sample shortly before
/// the next pass's permutation returns to it and hits about 1 % of the
/// time, where a fixed resident set hits `capacity / dataset`.
///
/// [`Pipeline`]: crate::Pipeline
pub struct MemoryCacheSource<S> {
    inner: S,
    state: Mutex<CacheState>,
    hits: Arc<Counter>,
    misses: Arc<Counter>,
    read: AtomicU64,
    capacity_bytes: u64,
}

struct CacheState {
    entries: Vec<Option<Resident>>,
    /// Sum of the lengths of the resident entries.
    bytes: u64,
}

/// One resident sample and the CRC-32 taken when it was read.
#[derive(Clone)]
struct Resident {
    bytes: Arc<Vec<u8>>,
    crc32: u32,
}

/// A sample as [`MemoryCacheSource::fetch_checked`] hands it out whole.
#[derive(Debug, Clone)]
pub struct CheckedSample {
    /// The sample's bytes.
    pub bytes: SampleBytes,
    /// CRC-32 of `bytes` as they were read from the source below the
    /// cache: verified there for a raw stored entry, computed once after
    /// the read otherwise. A resident entry keeps it, so whoever sends
    /// the bytes on can check them against it without the cache doing
    /// the pass again.
    pub crc32: u32,
}

/// Where the bytes of a [`CheckedSample`] live.
#[derive(Debug, Clone)]
pub enum SampleBytes {
    /// A resident entry, shared with the cache.
    Resident(Arc<Vec<u8>>),
    /// The buffer this fetch read into; the cache had no room for it.
    Read(Vec<u8>),
}

impl std::ops::Deref for SampleBytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        match self {
            SampleBytes::Resident(shared) => shared,
            SampleBytes::Read(own) => own,
        }
    }
}

impl<S: SampleSource> MemoryCacheSource<S> {
    /// Wraps `inner` with a cache of `capacity_bytes`.
    pub fn new(inner: S, capacity_bytes: u64) -> Self {
        Self::build(inner, capacity_bytes, None)
    }

    /// [`MemoryCacheSource::new`] with hit/miss counters registered in
    /// `registry` as `pipeline.cache.memory.{hits,misses}`.
    pub fn with_registry(inner: S, capacity_bytes: u64, registry: &MetricsRegistry) -> Self {
        Self::build(inner, capacity_bytes, Some(registry))
    }

    fn build(inner: S, capacity_bytes: u64, registry: Option<&MetricsRegistry>) -> Self {
        let n = inner.len();
        let counter = |name: &str| match registry {
            Some(r) => r.counter(name),
            None => Arc::new(Counter::default()),
        };
        Self {
            hits: counter("pipeline.cache.memory.hits"),
            misses: counter("pipeline.cache.memory.misses"),
            inner,
            state: Mutex::new(CacheState {
                entries: vec![None; n],
                bytes: 0,
            }),
            read: AtomicU64::new(0),
            capacity_bytes,
        }
    }

    /// Cache hits so far.
    pub fn hits(&self) -> u64 {
        self.hits.get()
    }

    /// Cache misses so far.
    pub fn misses(&self) -> u64 {
        self.misses.get()
    }

    /// Bytes currently resident in the cache.
    pub fn resident_bytes(&self) -> u64 {
        self.state.lock().bytes
    }

    /// Sample `idx` whole, without copying it: on a hit the resident
    /// entry itself, on a miss the buffer the source below filled —
    /// moved into the cache when it fits — each with the CRC-32 of its
    /// bytes ([`CheckedSample::crc32`]).
    pub fn fetch_checked(&self, idx: usize) -> Result<CheckedSample> {
        // The lock covers the slot lookup only.
        let hit = self.state.lock().entries.get(idx).and_then(Clone::clone);
        let sample = match hit {
            Some(Resident { bytes, crc32 }) => {
                self.hits.inc();
                CheckedSample {
                    bytes: SampleBytes::Resident(bytes),
                    crc32,
                }
            }
            None => {
                self.misses.inc();
                self.read_and_admit(idx)?
            }
        };
        self.read
            .fetch_add(sample.bytes.len() as u64, Ordering::Relaxed);
        Ok(sample)
    }

    /// A miss: reads sample `idx` as the source below stores it, so a
    /// raw entry arrives with the CRC its read was checked against, and
    /// offers the buffer for admission.
    fn read_and_admit(&self, idx: usize) -> Result<CheckedSample> {
        let mut buf = Vec::new();
        let crc32 = match self.inner.fetch_stored_into(idx, &mut buf)? {
            Some(Stored {
                unpack: None,
                crc32,
                ..
            }) => crc32,
            Some(Stored {
                unpack: Some(unpack),
                raw_len,
                ..
            }) => {
                let mut raw = Vec::new();
                unpack(&buf, &mut raw, raw_len as usize)?;
                buf = raw;
                crc32(&buf)
            }
            None => crc32(&buf),
        };
        // Concurrent misses of one index all arrive here; the slot and
        // the byte count change together under the lock, so only the
        // first is admitted — by moving the buffer into the entry.
        let mut guard = self.state.lock();
        let st = &mut *guard;
        let len = buf.len() as u64;
        let bytes = match st.entries.get_mut(idx) {
            Some(slot) if slot.is_none() && st.bytes + len <= self.capacity_bytes => {
                let bytes = Arc::new(buf);
                *slot = Some(Resident {
                    bytes: Arc::clone(&bytes),
                    crc32,
                });
                st.bytes += len;
                SampleBytes::Resident(bytes)
            }
            _ => SampleBytes::Read(buf),
        };
        Ok(CheckedSample { bytes, crc32 })
    }
}

impl<S: SampleSource> SampleSource for MemoryCacheSource<S> {
    fn len(&self) -> usize {
        self.inner.len()
    }

    fn fetch_into(&self, idx: usize, buf: &mut Vec<u8>) -> Result<()> {
        let sample = self.fetch_checked(idx)?;
        buf.clear();
        buf.extend_from_slice(&sample.bytes);
        Ok(())
    }

    fn bytes_read(&self) -> u64 {
        self.read.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blobs() -> Vec<Vec<u8>> {
        (0..5u8).map(|i| vec![i; (i as usize + 1) * 10]).collect()
    }

    /// Sum of the lengths of the entries actually resident.
    fn resident_sum<S>(c: &MemoryCacheSource<S>) -> u64 {
        let st = c.state.lock();
        st.entries
            .iter()
            .flatten()
            .map(|e| e.bytes.len() as u64)
            .sum()
    }

    /// A source that hands every sample over as stored: the bytes
    /// reversed (to be turned back by `unpack`) when `packed`, else as
    /// they are with the CRC `crc32` says.
    struct StoredForm {
        inner: VecSource,
        packed: bool,
        crc32: fn(&[u8]) -> u32,
    }

    fn reverse(stored: &[u8], out: &mut Vec<u8>, raw_len: usize) -> Result<()> {
        out.clear();
        out.extend(stored.iter().rev());
        if out.len() != raw_len {
            return Err(DataError::Format("length").into());
        }
        Ok(())
    }

    impl SampleSource for StoredForm {
        fn len(&self) -> usize {
            self.inner.len()
        }

        fn fetch_into(&self, idx: usize, buf: &mut Vec<u8>) -> Result<()> {
            self.inner.fetch_into(idx, buf)
        }

        fn fetch_stored_into(&self, idx: usize, buf: &mut Vec<u8>) -> Result<Option<Stored>> {
            self.inner.fetch_into(idx, buf)?;
            if self.packed {
                buf.reverse();
            }
            Ok(Some(Stored {
                encoding: u8::from(self.packed),
                raw_len: buf.len() as u32,
                crc32: (self.crc32)(buf),
                unpack: self.packed.then_some(reverse as Unpack),
            }))
        }

        fn bytes_read(&self) -> u64 {
            self.inner.bytes_read()
        }
    }

    #[test]
    fn a_checked_fetch_shares_the_entry_and_carries_the_crc_of_the_read() {
        let samples = blobs();
        // Plain bytes: one CRC after the read. Capacity for 0 and 1.
        let c = MemoryCacheSource::new(VecSource::new(samples.clone()), 30);
        for round in 0..2 {
            for (i, want) in samples.iter().enumerate() {
                let got = c.fetch_checked(i).unwrap();
                assert_eq!(&*got.bytes, &want[..], "round {round}, {i}");
                assert_eq!(got.crc32, crc32(want));
                assert_eq!(matches!(got.bytes, SampleBytes::Resident(_)), i < 2);
            }
        }
        // The entry itself, the same allocation on every hit.
        let (a, b) = (c.fetch_checked(1).unwrap(), c.fetch_checked(1).unwrap());
        let (SampleBytes::Resident(a), SampleBytes::Resident(b)) = (a.bytes, b.bytes) else {
            panic!("sample 1 is resident");
        };
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!((c.hits(), c.misses()), (4, 8));
        assert_eq!(c.bytes_read(), 2 * 150 + 2 * 20);

        // A raw stored entry comes with the CRC its read vouched for —
        // the cache does not compute another, so a wrong one stays
        // wrong, hit or miss. A packed one is unpacked, then CRC'd.
        let liar = MemoryCacheSource::new(
            StoredForm {
                inner: VecSource::new(samples.clone()),
                packed: false,
                crc32: |_| 0xDEAD_BEEF,
            },
            u64::MAX,
        );
        let packed = MemoryCacheSource::new(
            StoredForm {
                inner: VecSource::new(samples.clone()),
                packed: true,
                crc32,
            },
            u64::MAX,
        );
        for _ in 0..2 {
            for (i, want) in samples.iter().enumerate() {
                let got = liar.fetch_checked(i).unwrap();
                assert_eq!((&*got.bytes, got.crc32), (&want[..], 0xDEAD_BEEF));
                let got = packed.fetch_checked(i).unwrap();
                assert_eq!((&*got.bytes, got.crc32), (&want[..], crc32(want)));
                let mut buf = vec![0xEE; 7];
                packed.fetch_into(i, &mut buf).unwrap();
                assert_eq!(&buf, want);
            }
        }
        assert_eq!(packed.resident_bytes(), 150);
    }

    #[test]
    fn vec_source_fetches_and_counts() {
        let s = VecSource::new(blobs());
        assert_eq!(s.len(), 5);
        assert_eq!(s.fetch(2).unwrap(), vec![2u8; 30]);
        assert_eq!(s.bytes_read(), 30);
        assert!(s.fetch(5).is_err());
    }

    #[test]
    fn dir_source_roundtrip() {
        let dir = std::env::temp_dir().join(format!("sciml_dirsrc_{}", std::process::id()));
        let s = DirSource::write_all(&dir, &blobs()).unwrap();
        assert_eq!(s.len(), 5);
        assert_eq!(s.fetch(3).unwrap(), vec![3u8; 40]);
        assert!(s.fetch(9).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn memory_cache_hits_within_capacity() {
        let c = MemoryCacheSource::new(VecSource::new(blobs()), u64::MAX);
        for _ in 0..3 {
            for i in 0..5 {
                c.fetch(i).unwrap();
            }
        }
        assert_eq!(c.misses(), 5);
        assert_eq!(c.hits(), 10);
        assert_eq!(c.resident_bytes(), 150);
        // The inner source was read once per sample.
        assert_eq!(c.inner.bytes_read(), 150);
    }

    #[test]
    fn memory_cache_fills_once_and_never_evicts() {
        // Samples are 10,20,30,40,50 bytes; capacity 60.
        let c = MemoryCacheSource::new(VecSource::new(blobs()), 60);
        for i in 0..5 {
            c.fetch(i).unwrap(); // 0,1,2 fill the cache; 3 and 4 do not fit
        }
        assert_eq!(c.resident_bytes(), 60);
        for i in 0..5 {
            c.fetch(i).unwrap();
        }
        assert_eq!((c.hits(), c.misses()), (3, 7));
        assert_eq!(c.resident_bytes(), 60);
    }

    #[test]
    fn memory_cache_skips_oversized_samples() {
        let c = MemoryCacheSource::new(VecSource::new(blobs()), 15);
        // Sample 4 is 50 bytes > 15: served but never cached.
        c.fetch(4).unwrap();
        c.fetch(4).unwrap();
        assert_eq!(c.hits(), 0);
        assert_eq!(c.misses(), 2);
        // Sample 0 (10 bytes) caches fine.
        c.fetch(0).unwrap();
        c.fetch(0).unwrap();
        assert_eq!(c.hits(), 1);
    }

    #[test]
    fn tiered_stack_memory_over_fs() {
        // DRAM cache over the shared file system, as real code.
        let dir = std::env::temp_dir().join(format!("sciml_tiered_{}", std::process::id()));
        let fs = DirSource::write_all(&dir, &blobs()).unwrap();
        let ram = MemoryCacheSource::new(fs, 35); // fits samples 0+1 only
        for _ in 0..2 {
            for (i, want) in blobs().iter().enumerate() {
                assert_eq!(&ram.fetch(i).unwrap(), want);
            }
        }
        // The second scan reads only what did not fit from the files.
        assert_eq!((ram.hits(), ram.misses()), (2, 8));
        assert_eq!(ram.inner.bytes_read(), 150 + 30 + 40 + 50);
        assert_eq!(ram.bytes_read(), 300);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Inner source that holds every fetch at `gate` until as many
    /// fetches as the barrier was built for are inside it at once.
    struct GatedSource {
        inner: VecSource,
        gate: std::sync::Barrier,
    }

    impl SampleSource for GatedSource {
        fn len(&self) -> usize {
            self.inner.len()
        }

        fn fetch_into(&self, idx: usize, buf: &mut Vec<u8>) -> Result<()> {
            self.gate.wait();
            self.inner.fetch_into(idx, buf)
        }

        fn bytes_read(&self) -> u64 {
            self.inner.bytes_read()
        }
    }

    #[test]
    fn concurrent_misses_of_one_index_are_admitted_once() {
        let threads = 8;
        let c = MemoryCacheSource::new(
            GatedSource {
                inner: VecSource::new(blobs()),
                gate: std::sync::Barrier::new(threads),
            },
            u64::MAX,
        );
        // The gate opens only once all eight have missed index 2.
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| assert_eq!(c.fetch(2).unwrap(), vec![2u8; 30]));
            }
        });
        assert_eq!((c.hits(), c.misses()), (0, threads as u64));
        assert_eq!(c.resident_bytes(), 30, "one entry, counted once");
        assert_eq!(resident_sum(&c), 30);
    }

    #[test]
    fn memory_cache_consistent_under_concurrent_fetches() {
        let c = MemoryCacheSource::new(
            VecSource::new((0..16u8).map(|i| vec![i; 100]).collect()),
            500, // holds 5 of 16 samples
        );
        let threads = 8;
        let rounds = 50;
        std::thread::scope(|scope| {
            for t in 0..threads {
                let c = &c;
                scope.spawn(move || {
                    for r in 0..rounds {
                        let idx = (t * 7 + r * 3) % 16;
                        let got = c.fetch(idx).unwrap();
                        assert_eq!(got, vec![idx as u8; 100], "corrupt read at {idx}");
                    }
                });
            }
        });
        // Every fetch returned full-size data, so the accounting must
        // add up exactly, hit or miss.
        assert_eq!(c.bytes_read(), (threads * rounds * 100) as u64);
        assert_eq!(c.hits() + c.misses(), (threads * rounds) as u64);
        // The byte count is the truth about the entries, and the
        // capacity held through the race.
        assert_eq!(c.resident_bytes(), resident_sum(&c));
        assert_eq!(c.resident_bytes(), 500, "every index was fetched: full");
    }

    #[test]
    fn cache_over_missing_dir_errors_not_panics() {
        // The cache wraps a backing directory that has vanished (e.g.
        // scratch purge): every fetch must surface an error.
        let missing = std::env::temp_dir().join(format!(
            "sciml_missing_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let s = MemoryCacheSource::new(DirSource::open(&missing, 3), u64::MAX);
        assert_eq!(s.len(), 3);
        for i in 0..3 {
            assert!(s.fetch(i).is_err(), "fetch {i} from missing dir must error");
        }
        assert_eq!(s.hits(), 0);
        assert_eq!(s.misses(), 3);
        assert_eq!(s.bytes_read(), 0);
        assert_eq!(s.resident_bytes(), 0);
    }

    #[cfg(unix)]
    #[test]
    fn write_all_into_read_only_dir_errors_not_panics() {
        use std::os::unix::fs::PermissionsExt;
        let dir = std::env::temp_dir().join(format!(
            "sciml_ro_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::set_permissions(&dir, std::fs::Permissions::from_mode(0o555)).unwrap();
        let result = DirSource::write_all(dir.join("staged"), &blobs());
        // Restore before asserting so cleanup works even on failure.
        std::fs::set_permissions(&dir, std::fs::Permissions::from_mode(0o755)).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        // Root can write anywhere; outside that case this must be a
        // clean error, and either way it must not panic.
        if let Err(e) = result {
            assert!(e.to_string().contains("io") || !e.to_string().is_empty());
        }
    }
}
