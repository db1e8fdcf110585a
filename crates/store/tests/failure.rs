//! Failure injection for the packed store: every corruption a disk or
//! network can produce must surface as a typed [`StoreError`], never a
//! panic — truncated shards, corrupted footer indexes, bit-flipped
//! payloads, and staging manifests whose backing source has vanished.

use sciml_compress::crc32::crc32;
use sciml_pipeline::source::{DirSource, VecSource};
use sciml_pipeline::SampleSource;
use sciml_store::manifest::plan_by_count;
use sciml_store::{
    pack_store, PackConfig, ShardReader, ShardSource, Stager, StagerConfig, StoreError,
};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "sciml_fail_store_{tag}_{}_{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn packed_store(tag: &str, n: usize) -> (PathBuf, Vec<Vec<u8>>) {
    let dir = tmp_dir(tag);
    let samples: Vec<Vec<u8>> = (0..n).map(|i| vec![i as u8; 120 + i]).collect();
    pack_store(
        &VecSource::new(samples.clone()),
        &dir,
        PackConfig {
            target_shard_bytes: 300,
            ..PackConfig::default()
        },
    )
    .unwrap();
    (dir, samples)
}

fn shard_path(dir: &Path) -> PathBuf {
    dir.join("shard_000000.sshard")
}

/// Truncation at every byte boundary of a real shard file: open or
/// fetch must fail with a typed error at every cut point, and must
/// never panic.
#[test]
fn truncated_shard_always_typed_error() {
    let (dir, _) = packed_store("truncate", 4);
    let original = std::fs::read(shard_path(&dir)).unwrap();
    for cut in 0..original.len() {
        std::fs::write(shard_path(&dir), &original[..cut]).unwrap();
        match ShardReader::open(shard_path(&dir)) {
            Ok(reader) => {
                // If the trailer happened to survive, payload reads must
                // still catch the missing bytes.
                let mut any_err = false;
                for i in 0..reader.count() {
                    any_err |= reader.fetch(i).is_err();
                }
                assert!(any_err, "cut at {cut} silently read truncated data");
            }
            Err(
                StoreError::Truncated(_)
                | StoreError::BadMagic(_)
                | StoreError::Malformed(_)
                | StoreError::IndexCorrupt { .. }
                | StoreError::Io(_),
            ) => {}
            Err(other) => panic!("cut at {cut}: unexpected error {other}"),
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A bit flip anywhere in the footer index (or trailer) is caught by
/// the index CRC / trailer validation at open time.
#[test]
fn corrupted_footer_index_rejected_at_open() {
    let (dir, _) = packed_store("footer", 4);
    let path = shard_path(&dir);
    let original = std::fs::read(&path).unwrap();
    let reader = ShardReader::open(&path).unwrap();
    let entries = reader.count();
    drop(reader);
    // Index region: 21 bytes per entry + 24-byte trailer at the end.
    let index_start = original.len() - 24 - 21 * entries;
    for pos in (index_start..original.len()).step_by(7) {
        let mut bytes = original.clone();
        bytes[pos] ^= 0x10;
        std::fs::write(&path, &bytes).unwrap();
        let err = match ShardReader::open(&path) {
            Err(e) => e,
            Ok(_) => panic!("corrupt footer byte {pos} accepted"),
        };
        assert!(
            matches!(
                err,
                StoreError::IndexCorrupt { .. }
                    | StoreError::BadMagic(_)
                    | StoreError::BadVersion(_)
                    | StoreError::Truncated(_)
                    | StoreError::Malformed(_)
            ),
            "byte {pos}: unexpected error {err}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// An index entry whose extent wraps past 2^64, under a correct index
/// CRC, is a malformed shard at open. Unchecked, the sum panicked `open`
/// in a debug build; in release `open` accepted the shard and the read
/// failed as an I/O error rather than as a store error.
#[test]
fn index_entry_whose_extent_wraps_is_malformed() {
    let (dir, _) = packed_store("wrap", 2);
    let path = shard_path(&dir);
    let mut bytes = std::fs::read(&path).unwrap();
    let trailer = bytes.len() - 24;
    let index = u64::from_le_bytes(bytes[trailer..trailer + 8].try_into().unwrap()) as usize;
    // Entry 0's offset, then the index CRC recomputed over the result.
    bytes[index..index + 8].copy_from_slice(&(u64::MAX - 10).to_le_bytes());
    let crc = crc32(&bytes[index..trailer]);
    bytes[trailer + 16..trailer + 20].copy_from_slice(&crc.to_le_bytes());
    std::fs::write(&path, &bytes).unwrap();
    match ShardReader::open(&path) {
        Err(StoreError::Malformed(what)) => assert_eq!(what, "sample extent outside shard body"),
        Err(other) => panic!("unexpected error {other}"),
        Ok(reader) => panic!(
            "wrapping extent accepted; fetch: {:?}",
            reader.fetch(0).err()
        ),
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A bit flip in a sample payload passes open (the index is intact) but
/// fails that sample's CRC on fetch — and only that sample's.
#[test]
fn bit_flipped_payload_caught_per_sample() {
    let (dir, samples) = packed_store("payload", 4);
    let path = shard_path(&dir);
    let mut bytes = std::fs::read(&path).unwrap();
    // Header is 16 bytes; flip a bit early in the first payload.
    bytes[20] ^= 0x01;
    std::fs::write(&path, &bytes).unwrap();

    let store = ShardSource::open(&dir).unwrap();
    let err = store.fetch_verified(0).unwrap_err();
    assert!(
        matches!(err, StoreError::SampleCorrupt { sample: 0, .. }),
        "unexpected error {err}"
    );
    // Whole-store verification also names the damage.
    assert!(store.verify().is_err());
    // Samples in other shards are untouched and still fetch clean.
    let last = samples.len() - 1;
    assert_eq!(store.fetch_verified(last).unwrap(), samples[last]);
    std::fs::remove_dir_all(&dir).ok();
}

/// A shard file named by the manifest but missing from disk is a typed
/// `MissingShard`, discovered at open time.
#[test]
fn missing_shard_file_is_typed() {
    let (dir, _) = packed_store("missing", 6);
    std::fs::remove_file(shard_path(&dir)).unwrap();
    let err = match ShardSource::open(&dir) {
        Err(e) => e,
        Ok(_) => panic!("store with a missing shard file opened"),
    };
    assert!(
        matches!(err, StoreError::MissingShard(_) | StoreError::Io(_)),
        "unexpected error {err}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Staging from a backing directory that has vanished: every retry
/// fails, the error is typed (`RetriesExhausted` wrapping the backing
/// failure), the shard is marked failed — and nothing panics. The
/// staging view keeps answering for staged data and returns typed
/// errors for the rest.
#[test]
fn staging_with_vanished_backing_dir_is_typed() {
    let staging = tmp_dir("vanish_staging");
    let gone = tmp_dir("vanish_backing"); // never created
    let backing: Arc<dyn SampleSource> = Arc::new(DirSource::open(&gone, 4));
    let stager = Stager::new(
        backing,
        plan_by_count(4, 2),
        &staging,
        StagerConfig {
            max_retries: 1,
            retry_backoff: Duration::from_millis(1),
            ..StagerConfig::default()
        },
    )
    .unwrap();
    let err = stager.stage_one().unwrap_err();
    assert!(
        matches!(err, StoreError::RetriesExhausted(_)),
        "unexpected error {err}"
    );
    assert_eq!(stager.progress().failed_shards, 1);
    // Fall-through reads hit the same vanished dir: typed, not a panic.
    let view = stager.source();
    assert!(SampleSource::fetch(&view, 0).is_err());
    std::fs::remove_dir_all(&staging).ok();
}

/// The `StoreError` at the bottom of a staging failure: what the last
/// attempt's backing fetch hit.
fn root_store_error(err: &StoreError) -> &StoreError {
    let mut found = err;
    let mut next: Option<&(dyn std::error::Error + 'static)> = Some(err);
    while let Some(e) = next {
        if let Some(store) = e.downcast_ref::<StoreError>() {
            found = store;
        }
        next = e.source();
    }
    found
}

/// Faults on the verbatim route — the stager copying the origin's
/// stored entries — are the reader's typed errors, and a shard that hit
/// one is never staged: nothing under its canonical name, nothing in
/// the journal. Once the origin is repaired a new stager picks up where
/// this one stopped.
#[test]
fn verbatim_staging_faults_are_typed_and_never_staged() {
    type Damage = fn(&mut Vec<u8>);
    let flip_payload: Damage = |bytes| bytes[20] ^= 0x01;
    // The first entry's CRC field, with the index CRC in the trailer
    // made to agree: the shard opens, the entry lies.
    let flip_index_entry: Damage = |bytes| {
        let trailer = bytes.len() - 24;
        let index = u64::from_le_bytes(bytes[trailer..trailer + 8].try_into().unwrap()) as usize;
        bytes[index + 16] ^= 0x04;
        let crc = sciml_compress::crc32::crc32(&bytes[index..trailer]);
        bytes[trailer + 16..trailer + 20].copy_from_slice(&crc.to_le_bytes());
    };
    let truncate_mid_entry: Damage = |bytes| bytes.truncate(16 + 60);
    let cases: [(&str, Damage, bool); 3] = [
        ("payload", flip_payload, false),
        ("index", flip_index_entry, false),
        ("truncated", truncate_mid_entry, true),
    ];
    for (tag, damage, truncated) in cases {
        let (origin_dir, samples) = packed_store(&format!("verbatim_{tag}"), 6);
        let staging = tmp_dir(&format!("verbatim_{tag}_staging"));
        // Damage the second shard; the first stages clean.
        let victim = origin_dir.join("shard_000001.sshard");
        let intact = std::fs::read(&victim).unwrap();
        let mut damaged = intact.clone();
        damage(&mut damaged);
        if !truncated {
            std::fs::write(&victim, &damaged).unwrap();
        }
        let origin = Arc::new(ShardSource::open(&origin_dir).unwrap());
        if truncated {
            // Cut after open: the footer was there when the index was
            // read, the body is gone when the entry is.
            std::fs::write(&victim, &damaged).unwrap();
        }
        let plans = origin.manifest().plans();
        assert!(plans.len() >= 2, "{tag}: the origin must span shards");
        let config = StagerConfig {
            max_retries: 1,
            retry_backoff: Duration::from_millis(1),
            ..StagerConfig::default()
        };
        let stager = Stager::new(origin, plans.clone(), &staging, config).unwrap();
        assert_eq!(stager.stage_one().unwrap(), Some(0), "{tag}");
        let err = stager.stage_one().unwrap_err();
        assert!(
            matches!(err, StoreError::RetriesExhausted(_)),
            "{tag}: {err}"
        );
        let root = root_store_error(&err);
        if truncated {
            assert!(matches!(root, StoreError::Truncated(_)), "{tag}: {root}");
        } else {
            assert!(
                matches!(root, StoreError::SampleCorrupt { sample: 0, .. }),
                "{tag}: {root}"
            );
        }
        let progress = stager.progress();
        assert_eq!((progress.staged_shards, progress.failed_shards), (1, 1));
        assert!(!staging.join("shard_000001.sshard").exists(), "{tag}");
        let journal = sciml_store::StagingJournal::open(&staging).unwrap();
        let journaled: Vec<u32> = journal.entries().iter().map(|e| e.id).collect();
        assert_eq!(journaled, [0], "{tag}: only the clean shard is journaled");
        drop(stager);

        // Repaired origin, same staging directory: resume and finish.
        std::fs::write(&victim, &intact).unwrap();
        let origin = Arc::new(ShardSource::open(&origin_dir).unwrap());
        let stager = Stager::new(origin.clone(), plans, &staging, config).unwrap();
        assert_eq!(stager.progress().staged_shards, 1, "{tag}: resumed");
        let progress = stager.run().unwrap();
        assert!(progress.complete(), "{tag}");
        let staged = ShardSource::open(&staging).unwrap();
        assert_eq!(staged.verify().unwrap(), samples.len() as u64);
        for meta in &origin.manifest().shards {
            assert_eq!(
                std::fs::read(staging.join(&meta.file)).unwrap(),
                std::fs::read(origin_dir.join(&meta.file)).unwrap(),
                "{tag}: {}",
                meta.file
            );
        }
        std::fs::remove_dir_all(&origin_dir).ok();
        std::fs::remove_dir_all(&staging).ok();
    }
}

/// Garbage bytes under the shard extension: opening is an error, not a
/// panic, whatever the content.
#[test]
fn garbage_shard_file_rejected() {
    let dir = tmp_dir("garbage");
    std::fs::create_dir_all(&dir).unwrap();
    for content in [
        &b""[..],
        &b"SS"[..],
        &b"not a shard at all, just text"[..],
        &[0u8; 64][..],
        &[0xFFu8; 200][..],
    ] {
        let path = dir.join("shard_000000.sshard");
        std::fs::write(&path, content).unwrap();
        assert!(ShardReader::open(&path).is_err());
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A stager killed mid-append leaves its journal cut anywhere. Cut a
/// three-entry journal at every byte: a new stager opens the directory
/// every time, trusts exactly the lines that ended, stages exactly the
/// shards the rest no longer covers, and leaves a journal whole again.
#[test]
fn torn_journal_resumes_at_every_cut() {
    let (origin_dir, samples) = packed_store("torn_origin", 9);
    let origin = Arc::new(ShardSource::open(&origin_dir).unwrap());
    let plans = origin.manifest().plans();
    assert_eq!(plans.len(), 3, "three shards, three journal lines");
    let config = StagerConfig::default();
    let full = tmp_dir("torn_full");
    let stager = Stager::new(origin.clone(), plans.clone(), &full, config).unwrap();
    while stager.stage_one().unwrap().is_some() {}
    drop(stager);
    let journal = std::fs::read(full.join("staging.journal")).unwrap();
    let staged: Vec<(String, Vec<u8>)> = (0..3)
        .map(|id| {
            let name = format!("shard_{id:06}.sshard");
            let bytes = std::fs::read(full.join(&name)).unwrap();
            (name, bytes)
        })
        .collect();

    let dir = tmp_dir("torn_resume");
    for cut in 0..=journal.len() {
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        for (name, bytes) in &staged {
            std::fs::write(dir.join(name), bytes).unwrap();
        }
        let kept = &journal[..cut];
        std::fs::write(dir.join("staging.journal"), kept).unwrap();
        // The ids on the lines that ended.
        let whole = &kept[..kept.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1)];
        let covered: Vec<u32> = String::from_utf8_lossy(whole)
            .lines()
            .filter_map(|l| l.strip_prefix("done "))
            .map(|l| l.split(' ').next().unwrap().parse().unwrap())
            .collect();

        let stager = Stager::new(origin.clone(), plans.clone(), &dir, config)
            .unwrap_or_else(|e| panic!("cut {cut}: {e}"));
        assert_eq!(stager.progress().staged_shards, covered.len(), "cut {cut}");
        let mut restaged = Vec::new();
        while let Some(id) = stager.stage_one().unwrap() {
            restaged.push(id);
        }
        restaged.sort_unstable();
        let missing: Vec<u32> = (0..3).filter(|id| !covered.contains(id)).collect();
        assert_eq!(restaged, missing, "cut {cut}");
        assert!(stager.progress().complete(), "cut {cut}");
        drop(stager);

        let reopened = sciml_store::StagingJournal::open(&dir).unwrap();
        let mut ids: Vec<u32> = reopened.entries().iter().map(|e| e.id).collect();
        ids.sort_unstable();
        assert_eq!(ids, [0, 1, 2], "cut {cut}: the journal is whole again");
        let store = ShardSource::open(&dir).unwrap();
        assert_eq!(store.verify().unwrap(), samples.len() as u64, "cut {cut}");
    }
    for d in [&origin_dir, &full, &dir] {
        std::fs::remove_dir_all(d).ok();
    }
}
