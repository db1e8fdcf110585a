//! The `.sshard` packed shard format.
//!
//! A shard concatenates many samples into one file so a staged dataset
//! costs a handful of inodes instead of one per sample. The layout puts
//! the index in a *footer* so shards can be written in one streaming
//! pass:
//!
//! ```text
//! ┌─────────────────────── header (16 B) ───────────────────────┐
//! │ magic "SSHD" │ version u16 │ flags u16 │ base sample idx u64 │
//! ├──────────────────────────── body ───────────────────────────┤
//! │ sample 0 stored bytes │ sample 1 stored bytes │ …           │
//! ├──────────────── footer index (21 B × count) ────────────────┤
//! │ offset u64 │ stored_len u32 │ raw_len u32 │ crc32 u32 │ enc u8 │
//! ├────────────────────── trailer (24 B) ───────────────────────┤
//! │ index_offset u64 │ count u64 │ index_crc u32 │ magic "SSFT" │
//! └─────────────────────────────────────────────────────────────┘
//! ```
//!
//! All integers are little-endian. There is one format version, 2 (any
//! other number in the header is a typed `BadVersion`); the header
//! flags are written as zero and not read. Each footer-index entry
//! carries an encoding byte — 0 raw, 1 gzip; 2 was `crates/pack` and is
//! now a typed error like every other value — so a single shard can mix
//! encodings: the [`EncodingChoice::Auto`] policy gzips a slice from the
//! middle of each payload and, if that saved an eighth of the slice,
//! the payload, and keeps the member only if it saves an eighth of the
//! payload (`sciml_compress::deflate::MIN_SAVING_DIVISOR`, the rule
//! DEFLATE applies per block). An entry that gzip barely shrinks costs
//! an inflate on every read for a few per cent of its bytes, so it is
//! stored raw: a DeepCAM blob, whose differential payload does not
//! compress, is raw; a CosmoFlow blob is gzip.
//! Compression is per-sample (not whole-shard) so positioned reads stay
//! valid, and each entry's CRC-32 covers the *stored* bytes, so
//! integrity checks never need to decompress.

use crate::manifest::{ShardMeta, StoreManifest};
use crate::{Result, StoreError};
use rayon::prelude::*;
use sciml_compress::crc32::{crc32, Crc32};
use sciml_compress::Level;
use sciml_pipeline::source::{SampleSource, Stored, StoredSample};
use std::fs::{self, File};
use std::io::Read;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};

/// File extension of packed shard files.
pub const SHARD_EXT: &str = "sshard";

const HEADER_MAGIC: &[u8; 4] = b"SSHD";
const TRAILER_MAGIC: &[u8; 4] = b"SSFT";
const VERSION: u16 = 2;
const HEADER_LEN: usize = 16;
const ENTRY_LEN: usize = 21;
const TRAILER_LEN: usize = 24;

/// Bytes of a payload trial-gzipped when auto-selecting an encoding,
/// taken from its middle.
const TRIAL_SAMPLE_BYTES: usize = 8192;

/// How one stored payload is encoded, as recorded in its footer-index
/// entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PayloadEncoding {
    /// Stored bytes are the raw sample bytes.
    Raw,
    /// Stored bytes are a gzip member ([`sciml_compress`]).
    Gzip,
}

impl PayloadEncoding {
    /// Wire/footer byte for this encoding.
    pub fn as_byte(self) -> u8 {
        match self {
            PayloadEncoding::Raw => 0,
            PayloadEncoding::Gzip => 1,
        }
    }

    /// Parses a footer byte.
    pub fn from_byte(b: u8) -> Option<Self> {
        match b {
            0 => Some(PayloadEncoding::Raw),
            1 => Some(PayloadEncoding::Gzip),
            _ => None,
        }
    }

    /// Lower-case name, as printed by `verify-store`.
    pub fn name(self) -> &'static str {
        match self {
            PayloadEncoding::Raw => "raw",
            PayloadEncoding::Gzip => "gzip",
        }
    }
}

/// The encoding policy a store or stager is configured with. Unlike
/// [`PayloadEncoding`] this includes `Auto`, which resolves per entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EncodingChoice {
    /// Store payloads uncompressed.
    Raw,
    /// Gzip every payload.
    Gzip,
    /// Gzip a payload where that saves an eighth of it, judged first on
    /// a slice from its middle, and store the rest raw.
    Auto,
}

impl EncodingChoice {
    /// Lower-case name (`raw` / `gzip` / `auto`).
    pub fn name(self) -> &'static str {
        match self {
            EncodingChoice::Raw => "raw",
            EncodingChoice::Gzip => "gzip",
            EncodingChoice::Auto => "auto",
        }
    }

    /// Whether this policy can produce an entry stored as `stored`
    /// (`Auto` resolves per entry, to either).
    pub fn admits(self, stored: PayloadEncoding) -> bool {
        matches!(
            (self, stored),
            (EncodingChoice::Auto, _)
                | (EncodingChoice::Raw, PayloadEncoding::Raw)
                | (EncodingChoice::Gzip, PayloadEncoding::Gzip)
        )
    }

    /// Wire byte used by the serve protocol's shard-manifest reply
    /// (2 was the retired pack policy and is not reused).
    pub fn as_byte(self) -> u8 {
        match self {
            EncodingChoice::Raw => 0,
            EncodingChoice::Gzip => 1,
            EncodingChoice::Auto => 3,
        }
    }

    /// Parses a wire byte.
    pub fn from_byte(b: u8) -> Option<Self> {
        match b {
            0 => Some(EncodingChoice::Raw),
            1 => Some(EncodingChoice::Gzip),
            3 => Some(EncodingChoice::Auto),
            _ => None,
        }
    }
}

impl std::str::FromStr for EncodingChoice {
    type Err = String;

    fn from_str(s: &str) -> std::result::Result<Self, String> {
        match s {
            "raw" => Ok(EncodingChoice::Raw),
            "gzip" => Ok(EncodingChoice::Gzip),
            "auto" => Ok(EncodingChoice::Auto),
            other => Err(format!(
                "unknown encoding {other:?} (expected raw|gzip|auto)"
            )),
        }
    }
}

impl std::fmt::Display for EncodingChoice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Per-encoding entry counts across a shard or store, as reported by
/// `verify-store`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EncodingCounts {
    /// Entries stored raw.
    pub raw: usize,
    /// Entries stored gzip-compressed.
    pub gzip: usize,
    /// Always 0: `benchmark/src/probes.rs` reads it for
    /// `store.auto_pack_share`, and only a benchmark PR may edit that.
    pub pack: usize,
}

impl EncodingCounts {
    /// Adds one entry of `enc`.
    pub fn record(&mut self, enc: PayloadEncoding) {
        match enc {
            PayloadEncoding::Raw => self.raw += 1,
            PayloadEncoding::Gzip => self.gzip += 1,
        }
    }

    /// Merges another tally into this one.
    pub fn merge(&mut self, other: EncodingCounts) {
        self.raw += other.raw;
        self.gzip += other.gzip;
    }
}

impl std::fmt::Display for EncodingCounts {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "raw={} gzip={}", self.raw, self.gzip)
    }
}

/// Canonical file name for shard `id` inside a store directory.
pub fn shard_file_name(id: u32) -> String {
    format!("shard_{id:06}.{SHARD_EXT}")
}

/// Packing knobs for [`pack_store`].
#[derive(Debug, Clone, Copy)]
pub struct PackConfig {
    /// Flush a shard once its raw payload reaches this size. Every
    /// shard holds at least one sample regardless.
    pub target_shard_bytes: u64,
    /// Payload encoding policy (per entry when [`EncodingChoice::Auto`]).
    pub encoding: EncodingChoice,
    /// Compression effort for gzip-encoded payloads.
    pub level: Level,
}

impl Default for PackConfig {
    fn default() -> Self {
        Self {
            target_shard_bytes: 64 * 1024 * 1024,
            encoding: EncodingChoice::Raw,
            level: Level::Fast,
        }
    }
}

/// Resolves the configured choice for one payload and encodes it.
///
/// `Auto` gzips [`TRIAL_SAMPLE_BYTES`] from the middle of the payload
/// and, where that saves an eighth of the slice, the whole payload,
/// which it keeps if that saves an eighth of the payload too. The
/// middle, because the head and the tail of a sample are its
/// structured metadata (a DCMX header and line directory compress 2.4×
/// in front of a payload that does not compress at all), the least
/// representative part of it. A payload no longer than the slice is its
/// own trial: one deflate. A trial that flatters its payload costs one
/// wasted deflate at write; a member kept for a small saving would cost
/// an inflate on every read.
fn encode_payload(
    raw: Vec<u8>,
    choice: EncodingChoice,
    level: Level,
) -> (PayloadEncoding, Vec<u8>) {
    let gzip = |bytes: &[u8]| sciml_compress::gzip_compress(bytes, level);
    let stored = match choice {
        EncodingChoice::Raw => None,
        EncodingChoice::Gzip => Some(gzip(&raw)),
        EncodingChoice::Auto => {
            let sample = trial_slice(&raw);
            let trial = gzip(sample);
            if !saves_an_eighth(trial.len(), sample.len()) {
                None
            } else if sample.len() == raw.len() {
                Some(trial)
            } else {
                Some(gzip(&raw)).filter(|stored| saves_an_eighth(stored.len(), raw.len()))
            }
        }
    };
    match stored {
        Some(stored) => (PayloadEncoding::Gzip, stored),
        None => (PayloadEncoding::Raw, raw),
    }
}

/// The [`TRIAL_SAMPLE_BYTES`] at the middle of `raw`, or all of it.
fn trial_slice(raw: &[u8]) -> &[u8] {
    let start = raw.len().saturating_sub(TRIAL_SAMPLE_BYTES) / 2;
    &raw[start..raw.len().min(start + TRIAL_SAMPLE_BYTES)]
}

/// Whether `stored` bytes in place of `raw` save at least an eighth.
fn saves_an_eighth(stored: usize, raw: usize) -> bool {
    stored <= raw - raw / sciml_compress::deflate::MIN_SAVING_DIVISOR
}

/// A length as the footer index stores it. The index has 32 bits for
/// each of an entry's two lengths; a longer entry is refused rather
/// than written with a length that lies.
fn entry_len(len: u64) -> Result<u32> {
    u32::try_from(len).map_err(|_| StoreError::EntryTooLarge { len })
}

/// The first half of the shard writer: encodes one sample under
/// `choice` into the entry a shard stores for it. Entries are
/// independent of each other and of the shard they end up in, so
/// callers encode them on as many threads as they have.
pub fn encode_entry(raw: Vec<u8>, choice: EncodingChoice, level: Level) -> Result<StoredSample> {
    let raw_len = entry_len(raw.len() as u64)?;
    let (encoding, stored) = encode_payload(raw, choice, level);
    entry_len(stored.len() as u64)?;
    Ok(StoredSample {
        encoding: encoding.as_byte(),
        raw_len,
        crc32: crc32(&stored),
        stored,
    })
}

/// The second half: lays `entries`, whose global indices start at
/// `base`, out as one complete shard file image. Every shard on disk —
/// packed or staged, its entries just encoded or copied from another
/// store — is assembled here.
pub fn assemble_shard(entries: &[StoredSample], base: u64) -> Result<Vec<u8>> {
    let body: usize = entries.iter().map(|e| e.stored.len()).sum();
    let mut out = Vec::with_capacity(HEADER_LEN + body + entries.len() * ENTRY_LEN + TRAILER_LEN);
    out.extend_from_slice(HEADER_MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&0u16.to_le_bytes());
    out.extend_from_slice(&base.to_le_bytes());
    for e in entries {
        out.extend_from_slice(&e.stored);
    }

    let index_offset = out.len();
    let mut offset = HEADER_LEN as u64;
    for e in entries {
        if PayloadEncoding::from_byte(e.encoding).is_none() {
            return Err(StoreError::Malformed("unknown payload encoding byte"));
        }
        let stored_len = entry_len(e.stored.len() as u64)?;
        out.extend_from_slice(&offset.to_le_bytes());
        out.extend_from_slice(&stored_len.to_le_bytes());
        out.extend_from_slice(&e.raw_len.to_le_bytes());
        out.extend_from_slice(&e.crc32.to_le_bytes());
        out.push(e.encoding);
        offset += u64::from(stored_len);
    }
    let index_crc = crc32(&out[index_offset..]);
    out.extend_from_slice(&(index_offset as u64).to_le_bytes());
    out.extend_from_slice(&(entries.len() as u64).to_le_bytes());
    out.extend_from_slice(&index_crc.to_le_bytes());
    out.extend_from_slice(TRAILER_MAGIC);
    Ok(out)
}

/// Assembles `entries` into shard file `id` under `dir` and returns its
/// manifest record; `encoding` is the policy the record names.
pub fn write_shard(
    dir: &Path,
    id: u32,
    entries: &[StoredSample],
    base: u64,
    encoding: EncodingChoice,
) -> Result<ShardMeta> {
    let bytes = assemble_shard(entries, base)?;
    let file = shard_file_name(id);
    // Write to a temp name then rename, so a killed process never leaves
    // a half-written file under the canonical name. Nothing is synced, so
    // a lost node still can.
    let tmp = dir.join(format!(".{file}.tmp"));
    fs::write(&tmp, &bytes)?;
    fs::rename(&tmp, dir.join(&file))?;
    Ok(ShardMeta {
        id,
        file,
        first: base,
        count: entries.len() as u64,
        bytes: bytes.len() as u64,
        crc32: crc32(&bytes),
        encoding,
    })
}

/// Packs every sample of `source` into `.sshard` files under `dir` and
/// writes the store manifest. Returns the manifest.
///
/// The deflate inside [`encode_entry`] is the cost, so a shard's entries
/// are encoded on the worker pool, one task per entry, and stitched in
/// index order; one shard of samples is in flight at a time.
pub fn pack_store(
    source: &dyn SampleSource,
    dir: &Path,
    config: PackConfig,
) -> Result<StoreManifest> {
    fs::create_dir_all(dir)?;
    let total = source.len();
    let mut shards: Vec<ShardMeta> = Vec::new();
    let mut pending: Vec<Vec<u8>> = Vec::new();
    let mut pending_bytes = 0u64;
    let mut base = 0u64;
    for idx in 0..total {
        let raw = source.fetch(idx).map_err(StoreError::Backing)?;
        pending_bytes += raw.len() as u64;
        pending.push(raw);
        if pending_bytes >= config.target_shard_bytes || idx + 1 == total {
            let entries = std::mem::take(&mut pending)
                .into_par_iter()
                .map(|raw| encode_entry(raw, config.encoding, config.level))
                .collect::<Result<Vec<_>>>()?;
            let meta = write_shard(dir, shards.len() as u32, &entries, base, config.encoding)?;
            base += meta.count;
            pending_bytes = 0;
            shards.push(meta);
        }
    }
    let manifest = StoreManifest { shards };
    manifest.write_to(dir)?;
    Ok(manifest)
}

/// The unpack half of a fetch: decodes `stored`, an entry's bytes as
/// [`ShardReader::read_into`] left them, into `out`, replacing its
/// contents. A function of its arguments alone, so it runs on whichever
/// thread has the time. `raw_len`, from the index, is the capacity `out`
/// is given and a hard limit on what inflate may produce — an
/// entry that lies about its size is a typed error, not an allocation —
/// and the length the result must have.
pub fn unpack_entry(
    encoding: PayloadEncoding,
    stored: &[u8],
    out: &mut Vec<u8>,
    raw_len: usize,
) -> Result<()> {
    match encoding {
        PayloadEncoding::Raw => {
            out.clear();
            out.extend_from_slice(stored);
        }
        PayloadEncoding::Gzip => {
            // What `out` holds is room inflate overwrites, not zeros to
            // write again.
            out.reserve(raw_len.saturating_sub(out.len()));
            sciml_compress::gzip_decompress_into(stored, out, raw_len)?;
        }
    }
    if out.len() != raw_len {
        return Err(StoreError::Malformed("decompressed length mismatch"));
    }
    Ok(())
}

/// [`unpack_entry`] for a gzip entry, as the function a [`Stored`]
/// carries to the thread that runs it.
fn unpack_gzip(stored: &[u8], out: &mut Vec<u8>, raw_len: usize) -> sciml_pipeline::Result<()> {
    Ok(unpack_entry(PayloadEncoding::Gzip, stored, out, raw_len)?)
}

thread_local! {
    /// Stored bytes of the gzip entry a
    /// [`ShardReader::fetch_into`] is unpacking. Fetching threads are
    /// long-lived, so each keeps one buffer the size of its largest
    /// entry instead of allocating and zeroing one per fetch.
    static STORED_SCRATCH: std::cell::RefCell<Vec<u8>> = const { std::cell::RefCell::new(Vec::new()) };
}

/// One footer-index entry, decoded.
#[derive(Debug, Clone, Copy)]
struct IndexEntry {
    offset: u64,
    stored_len: u32,
    raw_len: u32,
    crc32: u32,
    encoding: PayloadEncoding,
}

/// Random-access reader over one `.sshard` file.
///
/// Opening validates the header, trailer, and footer-index CRC up
/// front; each [`ShardReader::fetch`] then verifies the sample payload
/// CRC before returning (and before decompressing).
#[derive(Debug)]
pub struct ShardReader {
    path: PathBuf,
    /// Read with `pread(2)`: no seek lock, so reader threads never
    /// serialize on the file position.
    file: File,
    base: u64,
    index: Vec<IndexEntry>,
}

/// Little-endian u64 at the start of `b` (panic-free: copies exactly
/// the 8 bytes the caller's bounds-checked slice provides).
fn le_u64(b: &[u8]) -> u64 {
    let mut a = [0u8; 8];
    a.copy_from_slice(&b[..8]);
    u64::from_le_bytes(a)
}

/// Little-endian u32 at the start of `b`.
fn le_u32(b: &[u8]) -> u32 {
    let mut a = [0u8; 4];
    a.copy_from_slice(&b[..4]);
    u32::from_le_bytes(a)
}

impl ShardReader {
    /// Opens and validates a shard file.
    pub fn open(path: impl Into<PathBuf>) -> Result<Self> {
        let path = path.into();
        let file = File::open(&path).map_err(|e| {
            if e.kind() == std::io::ErrorKind::NotFound {
                StoreError::MissingShard(path.clone())
            } else {
                StoreError::Io(e)
            }
        })?;
        let file_len = file.metadata()?.len();
        if (file_len as usize) < HEADER_LEN + TRAILER_LEN {
            return Err(StoreError::Truncated("shard file"));
        }

        let mut header = [0u8; HEADER_LEN];
        file.read_exact_at(&mut header, 0)?;
        if &header[0..4] != HEADER_MAGIC {
            return Err(StoreError::BadMagic("shard header"));
        }
        let version = u16::from_le_bytes([header[4], header[5]]);
        if version != VERSION {
            return Err(StoreError::BadVersion(version));
        }
        let base = le_u64(&header[8..16]);

        let mut trailer = [0u8; TRAILER_LEN];
        file.read_exact_at(&mut trailer, file_len - TRAILER_LEN as u64)?;
        if &trailer[20..24] != TRAILER_MAGIC {
            return Err(StoreError::BadMagic("shard trailer"));
        }
        let index_offset = le_u64(&trailer[0..8]);
        let count = le_u64(&trailer[8..16]);
        let index_crc = le_u32(&trailer[16..20]);

        let index_len = (count as usize)
            .checked_mul(ENTRY_LEN)
            .ok_or(StoreError::Malformed("index size overflow"))?;
        let index_end = index_offset
            .checked_add(index_len as u64)
            .ok_or(StoreError::Malformed("index extent overflow"))?;
        if index_offset < HEADER_LEN as u64 || index_end != file_len - TRAILER_LEN as u64 {
            return Err(StoreError::Truncated("shard footer index"));
        }
        let mut index_bytes = vec![0u8; index_len];
        file.read_exact_at(&mut index_bytes, index_offset)?;
        let computed = crc32(&index_bytes);
        if computed != index_crc {
            return Err(StoreError::IndexCorrupt {
                computed,
                stored: index_crc,
            });
        }
        let mut index = Vec::with_capacity(count as usize);
        for entry in index_bytes.chunks_exact(ENTRY_LEN) {
            let e = IndexEntry {
                offset: le_u64(&entry[0..8]),
                stored_len: le_u32(&entry[8..12]),
                raw_len: le_u32(&entry[12..16]),
                crc32: le_u32(&entry[16..20]),
                encoding: PayloadEncoding::from_byte(entry[20])
                    .ok_or(StoreError::Malformed("unknown payload encoding byte"))?,
            };
            let end = e.offset.checked_add(u64::from(e.stored_len));
            if e.offset < HEADER_LEN as u64 || end.is_none_or(|end| end > index_offset) {
                return Err(StoreError::Malformed("sample extent outside shard body"));
            }
            index.push(e);
        }
        Ok(Self {
            path,
            file,
            base,
            index,
        })
    }

    /// Number of samples in the shard.
    pub fn count(&self) -> usize {
        self.index.len()
    }

    /// Global index of the shard's first sample.
    pub fn base(&self) -> u64 {
        self.base
    }

    /// Payload encoding of local sample `idx`.
    pub fn encoding(&self, idx: usize) -> Option<PayloadEncoding> {
        self.index.get(idx).map(|e| e.encoding)
    }

    /// Per-encoding tally over the shard's entries.
    pub fn encoding_counts(&self) -> EncodingCounts {
        let mut counts = EncodingCounts::default();
        for e in &self.index {
            counts.record(e.encoding);
        }
        counts
    }

    /// Raw (decoded) length of local sample `idx`.
    pub fn raw_len(&self, idx: usize) -> Option<u32> {
        self.index.get(idx).map(|e| e.raw_len)
    }

    /// Fetches local sample `idx`, verifying its CRC (and inflating a
    /// gzip-stored entry).
    pub fn fetch(&self, idx: usize) -> Result<Vec<u8>> {
        let mut buf = Vec::new();
        self.fetch_into(idx, &mut buf)?;
        Ok(buf)
    }

    /// [`ShardReader::fetch`] into a caller-provided buffer, replacing
    /// its contents: the read of [`ShardReader::read_into`], then — for
    /// a gzip entry, read into the calling thread's scratch
    /// instead — [`unpack_entry`] into `buf`, whose capacity is the
    /// index's `raw_len` and is never exceeded, so a recycled buffer is
    /// never reallocated. On error the contents of `buf` are
    /// unspecified.
    pub fn fetch_into(&self, idx: usize, buf: &mut Vec<u8>) -> Result<()> {
        let entry = self.entry(idx)?;
        if entry.encoding == PayloadEncoding::Raw {
            return self.read_stored(idx, entry, buf);
        }
        STORED_SCRATCH.with(|scratch| {
            let mut stored = scratch.borrow_mut();
            self.read_stored(idx, entry, &mut stored)?;
            unpack_entry(entry.encoding, &stored, buf, entry.raw_len as usize)
        })
    }

    /// The read half of a fetch: local sample `idx` as the shard stores
    /// it — `pread` into `buf`, replacing its contents, and the check
    /// against the index CRC — with what the index records about it and
    /// the [`unpack_entry`] that finishes it. [`assemble_shard`] takes
    /// such an entry as it is.
    pub fn read_into(&self, idx: usize, buf: &mut Vec<u8>) -> Result<Stored> {
        let entry = self.entry(idx)?;
        self.read_stored(idx, entry, buf)?;
        Ok(Stored {
            encoding: entry.encoding.as_byte(),
            raw_len: entry.raw_len,
            crc32: entry.crc32,
            unpack: match entry.encoding {
                PayloadEncoding::Raw => None,
                PayloadEncoding::Gzip => Some(unpack_gzip),
            },
        })
    }

    /// The index entry of local sample `idx`.
    fn entry(&self, idx: usize) -> Result<&IndexEntry> {
        self.index.get(idx).ok_or(StoreError::OutOfRange {
            idx,
            len: self.index.len(),
        })
    }

    /// Reads `entry`'s stored bytes into `stored`, replacing its
    /// contents, and checks them against the index CRC: the one read
    /// every entry point shares.
    fn read_stored(&self, idx: usize, entry: &IndexEntry, stored: &mut Vec<u8>) -> Result<()> {
        stored.resize(entry.stored_len as usize, 0);
        self.file.read_exact_at(stored, entry.offset).map_err(|e| {
            if e.kind() == std::io::ErrorKind::UnexpectedEof {
                StoreError::Truncated("shard body")
            } else {
                StoreError::Io(e)
            }
        })?;
        let computed = crc32(stored);
        if computed != entry.crc32 {
            return Err(StoreError::SampleCorrupt {
                sample: idx,
                computed,
                stored: entry.crc32,
            });
        }
        Ok(())
    }

    /// Verifies every sample payload's CRC without decompressing.
    pub fn verify(&self) -> Result<()> {
        let mut stored = Vec::new();
        for (idx, entry) in self.index.iter().enumerate() {
            self.read_stored(idx, entry, &mut stored)?;
        }
        Ok(())
    }

    /// Path this reader was opened from.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// Streams a file through CRC-32 (whole-file integrity for
/// `verify-store` and journal replay) without loading it into memory.
pub fn file_crc32(path: &Path) -> Result<u32> {
    let mut f = File::open(path).map_err(|e| {
        if e.kind() == std::io::ErrorKind::NotFound {
            StoreError::MissingShard(path.to_path_buf())
        } else {
            StoreError::Io(e)
        }
    })?;
    let mut crc = Crc32::new();
    let mut buf = [0u8; 64 * 1024];
    loop {
        let n = f.read(&mut buf)?;
        if n == 0 {
            break;
        }
        crc.update(&buf[..n]);
    }
    Ok(crc.finalize())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "sciml_shard_{tag}_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn samples() -> Vec<Vec<u8>> {
        vec![
            vec![1u8; 100],
            Vec::new(), // zero-length sample
            (0..=255u8).collect(),
            vec![42u8; 3000],
        ]
    }

    fn entries(samples: &[Vec<u8>], choice: EncodingChoice) -> Vec<StoredSample> {
        samples
            .iter()
            .map(|s| encode_entry(s.clone(), choice, Level::Fast).unwrap())
            .collect()
    }

    #[test]
    fn shard_roundtrip_plain() {
        let dir = tmp_dir("plain");
        let meta = write_shard(
            &dir,
            0,
            &entries(&samples(), EncodingChoice::Raw),
            7,
            EncodingChoice::Raw,
        )
        .unwrap();
        assert_eq!(meta.count, 4);
        assert_eq!(meta.first, 7);
        let r = ShardReader::open(dir.join(&meta.file)).unwrap();
        assert_eq!(r.count(), 4);
        assert_eq!(r.base(), 7);
        assert_eq!(r.encoding_counts().gzip, 0);
        // A recycled buffer, longer and then shorter than the entry.
        let mut buf = vec![0xEE; 1000];
        for (i, want) in samples().iter().enumerate() {
            assert_eq!(&r.fetch(i).unwrap(), want, "sample {i}");
            r.fetch_into(i, &mut buf).unwrap();
            assert_eq!(&buf, want, "fetch_into sample {i}");
        }
        r.verify().unwrap();
        let on_disk = std::fs::metadata(dir.join(&meta.file)).unwrap().len();
        assert_eq!(on_disk, meta.bytes);
        assert!(matches!(
            r.fetch(4),
            Err(StoreError::OutOfRange { idx: 4, len: 4 })
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn shard_roundtrip_gzip() {
        let dir = tmp_dir("gzip");
        let meta = write_shard(
            &dir,
            0,
            &entries(&samples(), EncodingChoice::Gzip),
            0,
            EncodingChoice::Gzip,
        )
        .unwrap();
        let r = ShardReader::open(dir.join(&meta.file)).unwrap();
        assert!(r.encoding_counts().gzip > 0);
        for (i, want) in samples().iter().enumerate() {
            assert_eq!(&r.fetch(i).unwrap(), want, "sample {i}");
            assert_eq!(r.raw_len(i).unwrap() as usize, want.len());
            assert_eq!(r.encoding(i), Some(PayloadEncoding::Gzip));
        }
        // Highly repetitive payloads must actually compress.
        let plain = assemble_shard(&entries(&samples(), EncodingChoice::Raw), 0).unwrap();
        assert!(meta.bytes < plain.len() as u64);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn shard_roundtrip_auto() {
        let dir = tmp_dir("auto");
        let written = entries(&samples(), EncodingChoice::Auto);
        let meta = write_shard(&dir, 0, &written, 0, EncodingChoice::Auto).unwrap();
        assert_eq!(meta.encoding, EncodingChoice::Auto);
        let r = ShardReader::open(dir.join(&meta.file)).unwrap();
        let mut buf = vec![0xEE; 4096];
        for (i, want) in samples().iter().enumerate() {
            assert_eq!(&r.fetch(i).unwrap(), want, "sample {i}");
            r.fetch_into(i, &mut buf).unwrap();
            assert_eq!(&buf, want, "fetch_into sample {i}");
        }
        r.verify().unwrap();
        // The runs gzip, the empty sample and the 0..=255 ramp stay raw.
        let counts = r.encoding_counts();
        assert_eq!((counts.raw, counts.gzip, counts.pack), (2, 2, 0));
        // Every payload here is shorter than the trial slice, so each
        // gzip entry is its trial's output: the bytes `Gzip` stores.
        let gzip = entries(&samples(), EncodingChoice::Gzip);
        for i in [0, 3] {
            assert_eq!(written[i], gzip[i], "sample {i}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// `n` bytes with nothing for a matcher to find: the top `bits`
    /// bits of each step of a 64-bit LCG.
    fn noise(n: usize, seed: u64, bits: u32) -> Vec<u8> {
        let mut x = seed;
        (0..n)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (x >> (64 - bits)) as u8
            })
            .collect()
    }

    /// `Auto`'s decisions, one row a shape: the payload, the encoding it
    /// gets, and how many deflates it took to decide.
    #[test]
    fn auto_keeps_gzip_where_the_member_saves_an_eighth() {
        let ramp = |n: usize| (0..n).map(|j| (j / 37) as u8).collect::<Vec<u8>>();
        let noise8 = |n: usize, seed: u64| noise(n, seed, 8);
        let rows: [(&str, Vec<u8>, PayloadEncoding, usize); 5] = [
            // The DCMX shape: a header and directory that compress in
            // front of a differential payload that does not.
            (
                "compressible head, incompressible body",
                [ramp(16 << 10), noise8(100 << 10, 1)].concat(),
                PayloadEncoding::Raw,
                1,
            ),
            (
                "incompressible head, compressible body",
                [noise8(16 << 10, 2), ramp(100 << 10)].concat(),
                PayloadEncoding::Gzip,
                2,
            ),
            // The middle slice pays; the member, an eighth of a ramp in
            // noise, saves a twelfth.
            (
                "member saves less than an eighth",
                [noise8(46 << 10, 3), ramp(8 << 10), noise8(46 << 10, 4)].concat(),
                PayloadEncoding::Raw,
                2,
            ),
            (
                "member saves at least an eighth",
                [noise8(30 << 10, 5), ramp(40 << 10), noise8(30 << 10, 6)].concat(),
                PayloadEncoding::Gzip,
                2,
            ),
            (
                "payload no longer than the slice",
                ramp(TRIAL_SAMPLE_BYTES),
                PayloadEncoding::Gzip,
                1,
            ),
        ];
        for (what, raw, want, deflates) in rows {
            // What the policy was shown: the slice, then the payload.
            let sample = trial_slice(&raw);
            assert_eq!(sample.len(), raw.len().min(TRIAL_SAMPLE_BYTES), "{what}");
            let trial = sciml_compress::gzip_compress(sample, Level::Fast);
            let full = sciml_compress::gzip_compress(&raw, Level::Fast);
            let judged = if !saves_an_eighth(trial.len(), sample.len()) {
                1
            } else {
                1 + usize::from(sample.len() < raw.len())
            };
            assert_eq!(judged, deflates, "{what}: deflates");
            let (encoding, stored) = encode_payload(raw.clone(), EncodingChoice::Auto, Level::Fast);
            assert_eq!(encoding, want, "{what}");
            match want {
                PayloadEncoding::Raw => assert!(stored == raw, "{what}"),
                PayloadEncoding::Gzip => {
                    assert!(stored == full, "{what}: the Gzip member");
                    assert!(saves_an_eighth(stored.len(), raw.len()), "{what}");
                }
            }
            let mut out = Vec::new();
            unpack_entry(encoding, &stored, &mut out, raw.len()).unwrap();
            assert!(out == raw, "{what}: round trip");
        }
        // The rule at its edge: an eighth saved is enough, a byte less
        // is not.
        assert!(saves_an_eighth(7000, 8000));
        assert!(!saves_an_eighth(7001, 8000));
        assert!(!saves_an_eighth(20, 0));
    }

    #[test]
    fn entry_longer_than_the_index_can_say_is_refused() {
        // The check alone, on lengths: no 4 GiB buffer is built.
        assert_eq!(entry_len(0).unwrap(), 0);
        assert_eq!(entry_len(u64::from(u32::MAX)).unwrap(), u32::MAX);
        for len in [1u64 << 32, (1 << 32) + 1, u64::MAX] {
            match entry_len(len) {
                Err(StoreError::EntryTooLarge { len: got }) => assert_eq!(got, len),
                other => panic!("{len}: {other:?}"),
            }
        }
        // An entry that claims an encoding the format has no byte for
        // is refused by the assembler, not written.
        let mut entry = encode_entry(vec![1, 2, 3], EncodingChoice::Raw, Level::Fast).unwrap();
        entry.encoding = 9;
        assert!(matches!(
            assemble_shard(&[entry], 0),
            Err(StoreError::Malformed(_))
        ));
    }

    #[test]
    fn read_then_unpack_is_fetch_and_returns_what_the_writer_was_given() {
        let dir = tmp_dir("entry");
        for choice in [
            EncodingChoice::Raw,
            EncodingChoice::Gzip,
            EncodingChoice::Auto,
        ] {
            let written = entries(&samples(), choice);
            let meta = write_shard(&dir, 0, &written, 0, choice).unwrap();
            let r = ShardReader::open(dir.join(&meta.file)).unwrap();
            let (mut buf, mut out) = (vec![0xEE; 50], vec![0xEE; 5000]);
            for (i, (want, sample)) in written.iter().zip(samples()).enumerate() {
                let got = r.read_into(i, &mut buf).unwrap();
                assert_eq!(
                    (got.encoding, got.raw_len, got.crc32, &buf),
                    (want.encoding, want.raw_len, want.crc32, &want.stored),
                    "{choice} entry {i}"
                );
                let encoding = PayloadEncoding::from_byte(got.encoding).unwrap();
                assert_eq!(got.unpack.is_none(), encoding == PayloadEncoding::Raw);
                unpack_entry(encoding, &buf, &mut out, sample.len()).unwrap();
                assert_eq!(out, sample, "{choice} entry {i}");
                if let Some(unpack) = got.unpack {
                    out.fill(0xEE);
                    unpack(&buf, &mut out, sample.len()).unwrap();
                    assert_eq!(out, sample, "{choice} entry {i}");
                }
            }
            assert!(matches!(
                r.read_into(written.len(), &mut buf),
                Err(StoreError::OutOfRange { .. })
            ));
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A fetch buffer recycled through the pipeline's pool comes back
    /// as its last read left it, and the next read neither reallocates
    /// it nor leaves a byte of the previous entry behind, whether that
    /// entry was longer or shorter.
    #[test]
    fn a_recycled_pool_buffer_reads_exactly_each_entry_in_place() {
        let dir = tmp_dir("pooled");
        let long: Vec<u8> = (0..5000u32).map(|i| (i % 251) as u8).collect();
        let short = vec![0x5A; 700];
        let written = entries(&[long.clone(), short.clone()], EncodingChoice::Raw);
        let meta = write_shard(&dir, 0, &written, 0, EncodingChoice::Raw).unwrap();
        let r = ShardReader::open(dir.join(&meta.file)).unwrap();
        let pool = sciml_pipeline::BufferPool::new(1);
        let mut buf = pool.checkout_bytes();
        r.read_into(0, &mut buf).unwrap();
        assert_eq!(*buf, long);
        let (ptr, cap) = (buf.as_ptr(), buf.capacity());
        drop(buf);
        // Longer before, shorter now; then shorter before, longer now.
        for (idx, want, before) in [(1, &short, &long), (0, &long, &short)] {
            let mut buf = pool.checkout_bytes();
            assert_eq!(*buf, *before, "handed out as the last read left it");
            r.read_into(idx, &mut buf).unwrap();
            assert_eq!(*buf, *want, "entry {idx}");
            assert_eq!((buf.as_ptr(), buf.capacity()), (ptr, cap), "entry {idx}");
        }
        assert_eq!((pool.hits(), pool.misses()), (2, 1));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn every_encoding_decodes_into_the_buffer_it_was_given() {
        let dir = tmp_dir("recycle");
        let sample: Vec<u8> = (0..40_000u32).map(|i| (i / 97) as u8).collect();
        for choice in [EncodingChoice::Raw, EncodingChoice::Gzip] {
            let written = entries(std::slice::from_ref(&sample), choice);
            let meta = write_shard(&dir, 0, &written, 0, choice).unwrap();
            let r = ShardReader::open(dir.join(&meta.file)).unwrap();
            assert_eq!(r.encoding(0).map(|e| e.name()), Some(choice.name()));
            let mut buf = Vec::new();
            r.fetch_into(0, &mut buf).unwrap();
            assert_eq!(buf, sample);
            let (ptr, cap) = (buf.as_ptr(), buf.capacity());
            buf.fill(0xEE);
            r.fetch_into(0, &mut buf).unwrap();
            assert_eq!(buf, sample);
            assert_eq!((buf.as_ptr(), buf.capacity()), (ptr, cap), "{choice}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn entries_that_lie_under_a_valid_crc_are_typed_errors() {
        // Each entry's index CRC is right, so the read passes and the
        // unpack must catch it, reserving nothing beyond `raw_len`.
        let dir = tmp_dir("hostile");
        let honest = vec![7u8; 4096];
        let gz = sciml_compress::gzip_compress(&honest, Level::Fast);
        let mut corrupt_body = gz.clone();
        corrupt_body[gz.len() / 2] ^= 0x10;
        let gzip = PayloadEncoding::Gzip.as_byte();
        let hostile = [
            (gzip, 4096, corrupt_body),
            (gzip, 4095, gz.clone()),
            (gzip, 4097, gz),
        ]
        .map(|(encoding, raw_len, stored)| StoredSample {
            encoding,
            raw_len,
            crc32: crc32(&stored),
            stored,
        });
        let meta = write_shard(&dir, 0, &hostile, 0, EncodingChoice::Auto).unwrap();
        let r = ShardReader::open(dir.join(&meta.file)).unwrap();
        r.verify().unwrap();
        let mut stored = Vec::new();
        for (i, entry) in hostile.iter().enumerate() {
            let mut out = Vec::new();
            let err = r.fetch_into(i, &mut out).unwrap_err();
            let want = match i {
                0 => matches!(err, StoreError::Compression(_)),
                1 => matches!(
                    err,
                    StoreError::Compression(sciml_compress::Error::OutputLimit)
                ),
                _ => matches!(err, StoreError::Malformed(_)),
            };
            assert!(want, "entry {i}: {err:?}");
            assert!(out.capacity() <= entry.raw_len as usize, "entry {i}");
            // The deferred form of the same fetch: the read succeeds,
            // the entry's own unpack fails.
            let got = r.read_into(i, &mut stored).unwrap();
            assert_eq!(stored, entry.stored);
            let unpack = got.unpack.expect("not raw");
            let err = unpack(&stored, &mut out, got.raw_len as usize).unwrap_err();
            assert!(
                matches!(err, sciml_pipeline::PipelineError::Storage(_)),
                "entry {i}: {err:?}"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn the_retired_encoding_is_refused_by_name_and_by_byte() {
        let err = "pack".parse::<EncodingChoice>().unwrap_err();
        assert!(err.contains("raw|gzip|auto"), "{err}");
        assert_eq!(EncodingChoice::from_byte(2), None);

        // What encoding byte 2 used to select: a `SPAK` header
        // (`crates/pack`), its own CRC right, declaring 2^24 chunks and
        // a terabyte.
        let pack_header = vec![
            83, 80, 65, 75, 1, 1, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 1, 0, 0, 52, 137, 49, 151,
        ];
        let mut entry = StoredSample {
            encoding: 2,
            raw_len: 64,
            crc32: crc32(&pack_header),
            stored: pack_header,
        };
        assert_eq!(PayloadEncoding::from_byte(2), None);
        assert!(matches!(
            assemble_shard(std::slice::from_ref(&entry), 0),
            Err(StoreError::Malformed(_))
        ));
        // No writer produces such a shard any more, so patch one: the
        // byte in the index, and the index CRC made right again.
        entry.encoding = PayloadEncoding::Gzip.as_byte();
        let mut image = assemble_shard(&[entry], 0).unwrap();
        let trailer = image.len() - TRAILER_LEN;
        let index = trailer - ENTRY_LEN;
        image[index + ENTRY_LEN - 1] = 2;
        let index_crc = crc32(&image[index..trailer]);
        image[trailer + 16..trailer + 20].copy_from_slice(&index_crc.to_le_bytes());
        let path = tmp_dir("retired").join("byte2.sshard");
        std::fs::write(&path, &image).unwrap();
        assert!(matches!(
            ShardReader::open(&path),
            Err(StoreError::Malformed("unknown payload encoding byte"))
        ));
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    #[test]
    fn v1_header_is_bad_version() {
        // Nothing has written version 1 since the per-entry encoding
        // byte arrived: a v1 header is refused, not guessed at.
        let mut bytes = assemble_shard(&entries(&samples(), EncodingChoice::Raw), 0).unwrap();
        bytes[4..6].copy_from_slice(&1u16.to_le_bytes());
        let path = tmp_dir("v1").join("v1.sshard");
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            ShardReader::open(&path),
            Err(StoreError::BadVersion(1))
        ));
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    #[test]
    fn empty_shard_roundtrips() {
        let dir = tmp_dir("empty");
        let meta = write_shard(&dir, 0, &[], 0, EncodingChoice::Raw).unwrap();
        let r = ShardReader::open(dir.join(&meta.file)).unwrap();
        assert_eq!(r.count(), 0);
        r.verify().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn concurrent_fetches_share_one_reader() {
        let dir = tmp_dir("conc");
        let many: Vec<Vec<u8>> = (0..64u8).map(|i| vec![i; 512]).collect();
        let meta = write_shard(
            &dir,
            0,
            &entries(&many, EncodingChoice::Raw),
            0,
            EncodingChoice::Raw,
        )
        .unwrap();
        let r = std::sync::Arc::new(ShardReader::open(dir.join(&meta.file)).unwrap());
        std::thread::scope(|scope| {
            for t in 0..8 {
                let r = std::sync::Arc::clone(&r);
                scope.spawn(move || {
                    for round in 0..32 {
                        let idx = (t * 11 + round * 5) % 64;
                        assert_eq!(r.fetch(idx).unwrap(), vec![idx as u8; 512]);
                    }
                });
            }
        });
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn file_crc_matches_manifest_crc() {
        let dir = tmp_dir("crc");
        let meta = write_shard(
            &dir,
            3,
            &entries(&samples(), EncodingChoice::Raw),
            0,
            EncodingChoice::Raw,
        )
        .unwrap();
        assert_eq!(file_crc32(&dir.join(&meta.file)).unwrap(), meta.crc32);
        assert!(matches!(
            file_crc32(&dir.join("nope.sshard")),
            Err(StoreError::MissingShard(_))
        ));
        std::fs::remove_dir_all(&dir).ok();
    }
}
