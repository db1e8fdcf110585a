//! Store manifest and staging journal: the two small text files that
//! make a packed store self-describing and staging resumable.
//!
//! Both are deliberately line-oriented ASCII — greppable on a login
//! node, diffable in CI, and parseable without a serde dependency.
//!
//! **Store manifest** (`store.manifest`), written once at pack time:
//!
//! ```text
//! sciml-store v1
//! shard 0 shard_000000.sshard 0 32 81920 9a0b1c2d
//! shard 1 shard_000001.sshard 32 32 80104 11223344
//! ```
//!
//! The manifest is written whole under a temporary name and renamed over
//! the canonical one, so a reader finds the old manifest or the new one.
//!
//! **Staging journal** (`staging.journal`), appended as shards
//! complete, one write a line; replayed on restart, and every claimed
//! shard is CRC-verified against the file on disk before being trusted.
//! A last line without its newline is what a stager killed mid-append
//! leaves: it is dropped, and its shard staged again.
//!
//! ```text
//! sciml-staging v1
//! done 1 11223344
//! done 0 9a0b1c2d
//! ```

use crate::shard::EncodingChoice;
use crate::{Result, StoreError};
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};

/// File name of the store manifest inside a packed store directory.
pub const MANIFEST_FILE: &str = "store.manifest";

/// Where [`StoreManifest::write_to`] writes before it renames.
const MANIFEST_TMP_FILE: &str = "store.manifest.tmp";

/// File name of the staging journal inside a staging directory.
pub const JOURNAL_FILE: &str = "staging.journal";

const MANIFEST_HEADER: &str = "sciml-store v1";
const JOURNAL_HEADER: &str = "sciml-staging v1";

/// One packed shard as recorded in the store manifest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardMeta {
    /// Shard id (dense, ascending).
    pub id: u32,
    /// File name relative to the store directory (no spaces).
    pub file: String,
    /// Global index of the shard's first sample.
    pub first: u64,
    /// Number of samples in the shard.
    pub count: u64,
    /// Total size of the shard file in bytes.
    pub bytes: u64,
    /// CRC-32 of the entire shard file.
    pub crc32: u32,
    /// Encoding policy the shard was packed with (the per-entry truth
    /// lives in the shard's footer index; this is what a stager should
    /// mirror).
    pub encoding: EncodingChoice,
}

impl ShardMeta {
    /// The staging-plan view of this shard (drops file name and CRC,
    /// which are properties of one particular packed copy).
    pub fn plan(&self) -> ShardPlan {
        ShardPlan {
            id: self.id,
            first: self.first,
            count: self.count,
            bytes: self.bytes,
            encoding: self.encoding,
        }
    }
}

/// A shard-sized range of samples to stage: what travels over the wire
/// when a server exports its shard partitioning. Unlike [`ShardMeta`]
/// it carries no file name or CRC — the staging node packs its own
/// local shard files and computes its own checksums.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardPlan {
    /// Shard id (dense, ascending).
    pub id: u32,
    /// Global index of the shard's first sample.
    pub first: u64,
    /// Number of samples in the shard.
    pub count: u64,
    /// Approximate shard size in bytes (0 when unknown) — used to
    /// bound in-flight staging bytes, not for integrity.
    pub bytes: u64,
    /// Encoding policy of the exporting store, so a staging node can
    /// mirror it. [`EncodingChoice::Auto`] for a synthesized plan.
    pub encoding: EncodingChoice,
}

/// Synthesizes a shard partitioning for a source that has no manifest:
/// consecutive runs of `per_shard` samples.
pub fn plan_by_count(total_samples: u64, per_shard: u64) -> Vec<ShardPlan> {
    let per_shard = per_shard.max(1);
    let mut plans = Vec::new();
    let mut first = 0u64;
    let mut id = 0u32;
    while first < total_samples {
        let count = per_shard.min(total_samples - first);
        plans.push(ShardPlan {
            id,
            first,
            count,
            bytes: 0,
            encoding: EncodingChoice::Auto,
        });
        first += count;
        id += 1;
    }
    plans
}

/// The manifest of a packed store: every shard, in id order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StoreManifest {
    /// Shards in ascending id / first-sample order.
    pub shards: Vec<ShardMeta>,
}

impl StoreManifest {
    /// Total number of samples across all shards.
    pub fn total_samples(&self) -> u64 {
        self.shards.iter().map(|s| s.count).sum()
    }

    /// Total bytes across all shard files.
    pub fn total_bytes(&self) -> u64 {
        self.shards.iter().map(|s| s.bytes).sum()
    }

    /// The staging plan for this manifest.
    pub fn plans(&self) -> Vec<ShardPlan> {
        self.shards.iter().map(ShardMeta::plan).collect()
    }

    /// Shard holding global sample `idx`, with the offset inside it.
    pub fn locate(&self, idx: u64) -> Option<(&ShardMeta, u64)> {
        // Shards are sorted by `first`; binary-search the containing one.
        let pos = self
            .shards
            .partition_point(|s| s.first + s.count <= idx)
            .min(self.shards.len().saturating_sub(1));
        let shard = self.shards.get(pos)?;
        if idx >= shard.first && idx < shard.first + shard.count {
            Some((shard, idx - shard.first))
        } else {
            None
        }
    }

    /// Serializes to the manifest text format.
    pub fn to_text(&self) -> String {
        let mut out = String::from(MANIFEST_HEADER);
        out.push('\n');
        for s in &self.shards {
            out.push_str(&format!(
                "shard {} {} {} {} {} {:08x} {}\n",
                s.id, s.file, s.first, s.count, s.bytes, s.crc32, s.encoding
            ));
        }
        out
    }

    /// Parses the manifest text format, validating structure: header
    /// line, dense ascending ids, contiguous sample ranges from 0.
    pub fn parse(text: &str) -> Result<Self> {
        let mut lines = text.lines();
        match lines.next() {
            Some(l) if l.trim() == MANIFEST_HEADER => {}
            Some(other) => {
                return Err(StoreError::Manifest(format!(
                    "bad manifest header: {other:?}"
                )))
            }
            None => return Err(StoreError::Manifest("empty manifest".into())),
        }
        let mut shards = Vec::new();
        // Both running sums are checked here, once, so `locate`,
        // `total_samples` and `total_bytes` never wrap on what parsed.
        let mut expect_first = 0u64;
        let mut total_bytes = 0u64;
        for (lineno, line) in lines.enumerate() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let fields: Vec<&str> = line.split_whitespace().collect();
            let err =
                |what: &str| StoreError::Manifest(format!("line {}: {what}: {line:?}", lineno + 2));
            if fields.len() != 8 || fields[0] != "shard" {
                return Err(err(
                    "expected `shard ID FILE FIRST COUNT BYTES CRC ENCODING`",
                ));
            }
            let id: u32 = fields[1].parse().map_err(|_| err("bad shard id"))?;
            let file = fields[2].to_string();
            let first: u64 = fields[3].parse().map_err(|_| err("bad first index"))?;
            let count: u64 = fields[4].parse().map_err(|_| err("bad sample count"))?;
            let bytes: u64 = fields[5].parse().map_err(|_| err("bad byte size"))?;
            let crc32 = u32::from_str_radix(fields[6], 16).map_err(|_| err("bad crc"))?;
            let encoding = fields[7].parse().map_err(|_| err("bad encoding"))?;
            if id as usize != shards.len() {
                return Err(err("shard ids must be dense and ascending"));
            }
            if first != expect_first {
                return Err(err("shard sample ranges must be contiguous from 0"));
            }
            if count == 0 {
                return Err(err("empty shard"));
            }
            expect_first = first
                .checked_add(count)
                .ok_or_else(|| err("sample range passes 2^64"))?;
            total_bytes = total_bytes
                .checked_add(bytes)
                .ok_or_else(|| err("total byte size passes 2^64"))?;
            shards.push(ShardMeta {
                id,
                file,
                first,
                count,
                bytes,
                crc32,
                encoding,
            });
        }
        Ok(Self { shards })
    }

    /// Writes the manifest into `dir` as [`MANIFEST_FILE`]: whole under
    /// a temporary name, then renamed over the canonical one, so a reader
    /// — or a run killed mid-write — finds the old manifest or the new
    /// one, never a prefix. A temporary file a killed run left behind is
    /// overwritten.
    pub fn write_to(&self, dir: &Path) -> Result<()> {
        let tmp = dir.join(MANIFEST_TMP_FILE);
        fs::write(&tmp, self.to_text())?;
        fs::rename(&tmp, dir.join(MANIFEST_FILE))?;
        Ok(())
    }

    /// Loads the manifest from `dir`.
    pub fn load_from(dir: &Path) -> Result<Self> {
        let path = dir.join(MANIFEST_FILE);
        let text = fs::read_to_string(&path).map_err(|e| {
            if e.kind() == std::io::ErrorKind::NotFound {
                StoreError::Manifest(format!("no {MANIFEST_FILE} in {}", dir.display()))
            } else {
                StoreError::Io(e)
            }
        })?;
        Self::parse(&text)
    }
}

/// One completed-shard record in the staging journal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JournalEntry {
    /// Shard id that finished staging.
    pub id: u32,
    /// CRC-32 of the staged shard file, verified on resume.
    pub crc32: u32,
}

/// The append-only staging journal: which shards are already staged.
///
/// Completed shards are appended (and flushed) one line at a time, each
/// in one write, so a killed stager loses at most the shard it was
/// working on — and leaves at most a torn last line, which is dropped on
/// open. On resume,
/// [`StagingJournal::replay`] re-verifies every claimed shard file's
/// CRC against disk and silently drops entries that no longer hold —
/// those shards are simply staged again.
#[derive(Debug)]
pub struct StagingJournal {
    path: PathBuf,
    entries: Vec<JournalEntry>,
}

impl StagingJournal {
    /// Parses the journal text format. A last line without its newline
    /// is a torn append, and is dropped; any other unknown or malformed
    /// line is an error (a corrupt journal must not be half-trusted). An
    /// empty or missing body is fine.
    pub fn parse(text: &str) -> Result<Vec<JournalEntry>> {
        let mut lines = complete_lines(text).lines();
        match lines.next() {
            Some(l) if l.trim() == JOURNAL_HEADER => {}
            Some(other) => {
                return Err(StoreError::Manifest(format!(
                    "bad journal header: {other:?}"
                )))
            }
            None => return Ok(Vec::new()),
        }
        let mut entries = Vec::new();
        for (lineno, line) in lines.enumerate() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let fields: Vec<&str> = line.split_whitespace().collect();
            let err = |what: &str| {
                StoreError::Manifest(format!("journal line {}: {what}: {line:?}", lineno + 2))
            };
            if fields.len() != 3 || fields[0] != "done" {
                return Err(err("expected `done ID CRC`"));
            }
            let id: u32 = fields[1].parse().map_err(|_| err("bad shard id"))?;
            let crc32 = u32::from_str_radix(fields[2], 16).map_err(|_| err("bad crc"))?;
            entries.push(JournalEntry { id, crc32 });
        }
        Ok(entries)
    }

    /// Opens (or creates) the journal in `dir`, replaying any existing
    /// entries. The caller decides which entries to trust via
    /// [`StagingJournal::entries`].
    pub fn open(dir: &Path) -> Result<Self> {
        fs::create_dir_all(dir)?;
        let path = dir.join(JOURNAL_FILE);
        let entries = match fs::read_to_string(&path) {
            Ok(text) => {
                let kept = complete_lines(&text);
                let entries = Self::parse(kept)?;
                if kept.is_empty() {
                    // Killed before even the header was whole.
                    fs::write(&path, format!("{JOURNAL_HEADER}\n"))?;
                } else if kept.len() < text.len() {
                    // Cut the torn line, so the next append starts a
                    // line of its own.
                    let f = fs::OpenOptions::new().write(true).open(&path)?;
                    f.set_len(kept.len() as u64)?;
                    f.sync_data()?;
                }
                entries
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                fs::write(&path, format!("{JOURNAL_HEADER}\n"))?;
                Vec::new()
            }
            Err(e) => return Err(StoreError::Io(e)),
        };
        Ok(Self { path, entries })
    }

    /// Entries replayed from disk at open time.
    pub fn entries(&self) -> &[JournalEntry] {
        &self.entries
    }

    /// Appends one completed-shard record and flushes it to disk.
    pub fn append(&mut self, entry: JournalEntry) -> Result<()> {
        let line = format!("done {} {:08x}\n", entry.id, entry.crc32);
        let mut f = fs::OpenOptions::new().append(true).open(&self.path)?;
        f.write_all(line.as_bytes())?;
        f.sync_data()?;
        self.entries.push(entry);
        Ok(())
    }

    /// Verifies each replayed entry against the staged shard files in
    /// `dir` (CRC over the whole file), returning only the entries that
    /// still hold. Missing or corrupt files are dropped — their shards
    /// will be staged again.
    pub fn replay(&self, dir: &Path, file_name: impl Fn(u32) -> String) -> Vec<JournalEntry> {
        self.entries
            .iter()
            .filter(|e| {
                fs::read(dir.join(file_name(e.id)))
                    .map(|bytes| sciml_compress::crc32::crc32(&bytes) == e.crc32)
                    .unwrap_or(false)
            })
            .copied()
            .collect()
    }
}

/// `text` up to and including its last newline: its complete lines.
fn complete_lines(text: &str) -> &str {
    &text[..text.rfind('\n').map_or(0, |i| i + 1)]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_manifest() -> StoreManifest {
        StoreManifest {
            shards: vec![
                ShardMeta {
                    id: 0,
                    file: "shard_000000.sshard".into(),
                    first: 0,
                    count: 3,
                    bytes: 120,
                    crc32: 0xDEAD_BEEF,
                    encoding: EncodingChoice::Auto,
                },
                ShardMeta {
                    id: 1,
                    file: "shard_000001.sshard".into(),
                    first: 3,
                    count: 2,
                    bytes: 90,
                    crc32: 0x0000_0001,
                    encoding: EncodingChoice::Raw,
                },
            ],
        }
    }

    #[test]
    fn manifest_roundtrips() {
        let m = demo_manifest();
        let parsed = StoreManifest::parse(&m.to_text()).unwrap();
        assert_eq!(parsed, m);
        assert_eq!(parsed.total_samples(), 5);
        assert_eq!(parsed.total_bytes(), 210);
    }

    #[test]
    fn seven_field_and_unknown_encoding_lines_are_errors() {
        for bad in [
            "sciml-store v1\nshard 0 a.sshard 0 2 10 00000000\n",
            "sciml-store v1\nshard 0 a.sshard 0 2 10 00000000 zstd\n",
            // The retired policy, as `sciml pack --encoding pack` wrote it.
            "sciml-store v1\nshard 0 a.sshard 0 2 10 00000000 pack\n",
        ] {
            assert!(matches!(
                StoreManifest::parse(bad),
                Err(StoreError::Manifest(_))
            ));
        }
    }

    #[test]
    fn locate_finds_the_right_shard() {
        let m = demo_manifest();
        assert_eq!(m.locate(0).unwrap().0.id, 0);
        assert_eq!(m.locate(2).unwrap(), (&m.shards[0], 2));
        assert_eq!(m.locate(3).unwrap(), (&m.shards[1], 0));
        assert_eq!(m.locate(4).unwrap().0.id, 1);
        assert!(m.locate(5).is_none());
        assert!(StoreManifest::default().locate(0).is_none());
    }

    #[test]
    fn manifest_rejects_gaps_and_bad_headers() {
        assert!(StoreManifest::parse("nonsense\n").is_err());
        // Each line is well formed but for the one fault it names.
        let cases = [
            (
                "sciml-store v1\nshard 0 a.sshard 0 2 10 00000000 raw\n\
                 shard 1 b.sshard 5 2 10 00000000 raw\n",
                "contiguous",
            ),
            (
                "sciml-store v1\nshard 2 a.sshard 0 2 10 00000000 raw\n",
                "dense",
            ),
            (
                "sciml-store v1\nshard 0 a.sshard 0 0 10 00000000 raw\n",
                "empty shard",
            ),
        ];
        for (text, fault) in cases {
            match StoreManifest::parse(text) {
                Err(StoreError::Manifest(m)) => assert!(m.contains(fault), "{m}"),
                other => panic!("{fault}: {other:?}"),
            }
        }
    }

    #[test]
    fn sample_ranges_that_wrap_are_errors() {
        // Shard 0 ends at 2^64 - 1, so shard 1's range would end past
        // 2^64; unchecked, it wrapped and `locate` lost shard 0's samples.
        let max = u64::MAX;
        let text = format!(
            "sciml-store v1\nshard 0 a.sshard 0 {max} 10 00000000 raw\n\
             shard 1 b.sshard {max} 1 10 00000000 raw\n"
        );
        match StoreManifest::parse(&text) {
            Err(StoreError::Manifest(m)) => assert!(m.contains("sample range"), "{m}"),
            other => panic!("wrapping sample range accepted: {other:?}"),
        }
    }

    #[test]
    fn byte_sizes_that_wrap_are_errors() {
        // Unchecked, this parsed and `total_bytes` (which
        // `sciml verify-store` prints) overflowed.
        let max = u64::MAX;
        let text = format!(
            "sciml-store v1\nshard 0 a.sshard 0 1 {max} 00000000 raw\n\
             shard 1 b.sshard 1 1 {max} 00000000 raw\n"
        );
        match StoreManifest::parse(&text) {
            Err(StoreError::Manifest(m)) => assert!(m.contains("byte size"), "{m}"),
            Err(other) => panic!("unexpected error: {other}"),
            Ok(m) => panic!("wrapping byte total accepted: {}", m.total_bytes()),
        }
    }

    #[test]
    fn journal_roundtrips_and_appends() {
        let dir = std::env::temp_dir().join(format!(
            "sciml_journal_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let mut j = StagingJournal::open(&dir).unwrap();
        assert!(j.entries().is_empty());
        j.append(JournalEntry { id: 3, crc32: 0xAB }).unwrap();
        j.append(JournalEntry { id: 0, crc32: 0xCD }).unwrap();
        let reopened = StagingJournal::open(&dir).unwrap();
        assert_eq!(reopened.entries(), j.entries());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn journal_replay_drops_missing_and_corrupt_files() {
        let dir = std::env::temp_dir().join(format!(
            "sciml_replay_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let good = b"shard zero contents".to_vec();
        std::fs::write(dir.join("s0"), &good).unwrap();
        std::fs::write(dir.join("s1"), b"corrupted on disk").unwrap();
        let mut j = StagingJournal::open(&dir).unwrap();
        j.append(JournalEntry {
            id: 0,
            crc32: sciml_compress::crc32::crc32(&good),
        })
        .unwrap();
        j.append(JournalEntry {
            id: 1,
            crc32: 0x1234_5678, // does not match what's on disk
        })
        .unwrap();
        j.append(JournalEntry {
            id: 2,
            crc32: 0, // file never written
        })
        .unwrap();
        let trusted = j.replay(&dir, |id| format!("s{id}"));
        assert_eq!(trusted.len(), 1);
        assert_eq!(trusted[0].id, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn journal_parse_drops_a_torn_last_line_and_nothing_else() {
        let whole = "sciml-staging v1\ndone 1 0000000a\ndone 2 0000000b\n";
        let both = vec![
            JournalEntry { id: 1, crc32: 0xA },
            JournalEntry { id: 2, crc32: 0xB },
        ];
        assert_eq!(StagingJournal::parse(whole).unwrap(), both);
        // Every cut of the last line, newline included, drops it whole.
        let last = whole.len() - "done 2 0000000b\n".len();
        for cut in last..whole.len() {
            assert_eq!(
                StagingJournal::parse(&whole[..cut]).unwrap(),
                both[..1],
                "cut {cut}"
            );
        }
        // A torn header is no journal yet.
        assert!(StagingJournal::parse("sciml-stag").unwrap().is_empty());
        // A malformed line that did end is still an error, last or not.
        for bad in [
            "sciml-staging v1\ndone 2\n",
            "sciml-staging v1\ndone 1 0000000a\ndone 2 0000000g\n",
            "sciml-staging v1\ndone 1 0000000a\ngarbage\ndone 2 0000000b\n",
            "sciml-stag\ndone 1 0000000a\n",
        ] {
            assert!(StagingJournal::parse(bad).is_err(), "{bad:?}");
        }
    }

    /// Every state a `write_to` killed mid-write can leave — the new text
    /// cut anywhere under the temporary name, beside the old manifest —
    /// loads as the old manifest; the finished write loads as the new one
    /// and leaves no temporary file.
    #[test]
    fn manifest_is_replaced_never_rewritten_in_place() {
        let dir = std::env::temp_dir().join(format!(
            "sciml_manifest_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let old = demo_manifest();
        let mut new = demo_manifest();
        new.shards[1].crc32 = 0x0BAD_F00D;
        new.shards.push(ShardMeta {
            id: 2,
            file: "shard_000002.sshard".into(),
            first: 5,
            count: 1,
            bytes: 40,
            crc32: 7,
            encoding: EncodingChoice::Gzip,
        });
        old.write_to(&dir).unwrap();
        let tmp = dir.join(MANIFEST_TMP_FILE);
        let text = new.to_text();
        for cut in 0..=text.len() {
            std::fs::write(&tmp, &text[..cut]).unwrap();
            assert_eq!(StoreManifest::load_from(&dir).unwrap(), old, "cut {cut}");
        }
        // A leftover from a killed run is overwritten, then renamed away.
        std::fs::write(&tmp, "sciml-store v1\nshard 0 trunc").unwrap();
        new.write_to(&dir).unwrap();
        assert_eq!(StoreManifest::load_from(&dir).unwrap(), new);
        assert!(!tmp.exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn plan_by_count_covers_everything() {
        let plans = plan_by_count(10, 4);
        assert_eq!(plans.len(), 3);
        assert_eq!(plans[2].first, 8);
        assert_eq!(plans[2].count, 2);
        assert_eq!(plans.iter().map(|p| p.count).sum::<u64>(), 10);
        assert!(plan_by_count(0, 4).is_empty());
        // per_shard 0 is clamped, not a panic/infinite loop.
        assert_eq!(plan_by_count(3, 0).len(), 3);
    }
}
