//! Byte identity of the write path against the sequential writer it
//! replaced (`reference/`): a store packed on the worker pool, and a
//! store staged from stored entries or re-encoded, are the files the
//! one-thread, decode-and-encode-again writer produced. Plus the
//! contract of the read that makes verbatim staging possible:
//! `SampleSource::fetch_stored_into`.

mod reference;

use sciml_codec::{cosmoflow as cf, deepcam as dc};
use sciml_compress::Level;
use sciml_data::cosmoflow::{CosmoFlowConfig, UniverseGenerator};
use sciml_data::deepcam::{ClimateGenerator, DeepCamConfig};
use sciml_pipeline::source::{DirSource, VecSource};
use sciml_pipeline::SampleSource;
use sciml_store::manifest::plan_by_count;
use sciml_store::{
    encode_entry, pack_store, EncodingChoice, PackConfig, PayloadEncoding, ShardSource, Stager,
    StagerConfig, MANIFEST_FILE,
};
use std::path::{Path, PathBuf};
use std::sync::Arc;

const CHOICES: [EncodingChoice; 3] = [
    EncodingChoice::Raw,
    EncodingChoice::Gzip,
    EncodingChoice::Auto,
];

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "sciml_write_identity_{tag}_{}_{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// Encoded DeepCAM samples, a little over two `Auto` trial slices each.
fn deepcam_blobs(n: u64) -> Vec<Vec<u8>> {
    let generator = ClimateGenerator::new(DeepCamConfig {
        width: 96,
        height: 48,
        channels: 3,
        ..DeepCamConfig::test_small()
    });
    (0..n)
        .map(|i| {
            dc::encode(&generator.generate(i), &dc::EncoderConfig::default())
                .0
                .to_bytes()
        })
        .collect()
}

fn cosmo_blobs(n: u64) -> Vec<Vec<u8>> {
    let generator = UniverseGenerator::new(CosmoFlowConfig {
        grid: 16,
        ..CosmoFlowConfig::test_small()
    });
    (0..n)
        .map(|i| cf::encode(&generator.generate(i)).to_bytes())
        .collect()
}

/// Compressible payloads around the length of an `Auto` trial slice
/// (8192): at or under it the trial's output is the stored entry.
fn short_blobs(n: usize) -> Vec<Vec<u8>> {
    (0..n)
        .map(|i| {
            let len = [100, 8191, 8192, 8193, 3000][i % 5];
            (0..len).map(|j| (i + j / 37) as u8).collect()
        })
        .collect()
}

/// `n` bytes of a 64-bit LCG, the top `bits` bits of each step: nothing
/// for a matcher to find, and `8 - bits` eighths for an entropy coder.
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

/// A slow ramp: long runs, a few per cent of its size once deflated.
fn ramp(n: usize) -> Vec<u8> {
    (0..n).map(|j| (j / 37) as u8).collect()
}

/// The four shapes `Auto` rules on, with its verdict for each.
fn verdict_blobs() -> [(&'static str, Vec<u8>, PayloadEncoding); 4] {
    [
        // The DCMX shape: a directory that deflates well in front of a
        // payload that does not. The trial is taken from the payload.
        (
            "head compressible, body not",
            [ramp(16 << 10), noise(200 << 10, 11, 8)].concat(),
            PayloadEncoding::Raw,
        ),
        // Seven-bit noise saves an eighth less its code's header, in
        // front of an entry that shrinks 20-fold: the trial sees the
        // zeros.
        (
            "head saves under an eighth, body compressible",
            [noise(8 << 10, 12, 7), vec![0u8; 200 << 10]].concat(),
            PayloadEncoding::Gzip,
        ),
        (
            "nothing compressible",
            noise(200 << 10, 13, 8),
            PayloadEncoding::Raw,
        ),
        (
            "everything compressible",
            ramp(200 << 10),
            PayloadEncoding::Gzip,
        ),
    ]
}

/// Every shard file and the manifest of `dir` against `want`.
#[track_caller]
fn assert_store_is(dir: &Path, want: &reference::Store, what: &str) {
    for (meta, image) in want.manifest.shards.iter().zip(&want.images) {
        let got = std::fs::read(dir.join(&meta.file)).unwrap();
        assert!(got == *image, "{what}: {} differs", meta.file);
    }
    let manifest = std::fs::read_to_string(dir.join(MANIFEST_FILE)).unwrap();
    assert_eq!(manifest, want.manifest.to_text(), "{what}: manifest");
}

#[test]
fn packed_stores_are_the_sequential_writers_bytes() {
    for (set, blobs) in [
        ("deepcam", deepcam_blobs(10)),
        ("cosmo", cosmo_blobs(10)),
        ("short", short_blobs(10)),
    ] {
        for per_shard in [1usize, 2, 5] {
            // A shard closes on the entry that brings it to the target.
            let target: u64 = blobs[..per_shard].iter().map(|b| b.len() as u64).sum();
            let groups = reference::groups_by_bytes(&blobs, target);
            assert_eq!(groups[0], per_shard);
            for encoding in CHOICES {
                let what = format!("{set}, {per_shard} per shard, {encoding}");
                let dir = tmp_dir("pack");
                let manifest = pack_store(
                    &VecSource::new(blobs.clone()),
                    &dir,
                    PackConfig {
                        target_shard_bytes: target,
                        encoding,
                        level: Level::Fast,
                    },
                )
                .unwrap();
                let want = reference::store_of(&blobs, &groups, encoding, Level::Fast);
                assert_eq!(manifest, want.manifest, "{what}");
                assert_store_is(&dir, &want, &what);
                std::fs::remove_dir_all(&dir).ok();
            }
        }
    }
}

/// What `Auto` makes of each shape: the trial asks whether coding the
/// middle of the payload saves an eighth, the member is kept where it
/// saves an eighth of the payload, and an entry that is gzipped is the
/// entry `Gzip` writes (`shard.rs`'s unit test has a row for each way
/// the rule can go).
#[test]
fn auto_rules_on_the_middle_and_its_gzip_entry_is_the_gzip_entry() {
    for (what, blob, verdict) in verdict_blobs() {
        let entry = encode_entry(blob.clone(), EncodingChoice::Auto, Level::Fast).unwrap();
        assert_eq!(
            PayloadEncoding::from_byte(entry.encoding),
            Some(verdict),
            "{what}"
        );
        let gzip = encode_entry(blob.clone(), EncodingChoice::Gzip, Level::Fast).unwrap();
        match verdict {
            PayloadEncoding::Raw => assert!(entry.stored == blob, "{what}"),
            PayloadEncoding::Gzip => {
                assert!(entry.stored.len() < blob.len(), "{what}");
                assert!(
                    entry == gzip,
                    "{what}: an Auto gzip entry is the Gzip entry"
                );
            }
        }
        assert_eq!(
            sciml_compress::gzip_decompress(&gzip.stored).as_deref(),
            Ok(&blob[..]),
            "{what}"
        );
    }
}

/// Digests recorded from the parent of the change that made a block's
/// type depend on what coding it saves: CRC-32 over a store's shard
/// files, in order, and its manifest. The rule reaches no store written
/// under `Raw`, and none under `Gzip` or `Auto` whose payloads save an
/// eighth in every block — the CosmoFlow codec's output, short runs, a
/// ramp. (DeepCAM payloads are what it was made for; their stores are
/// held to the sequential writer above, which deflates as `pack_store`
/// does, not to a recording.) Nor did `Auto`'s move to a trial from the
/// middle and a member kept only where it saves an eighth reach these
/// rows. The DeepCAM `Raw` row was re-recorded when the DCMX mask
/// became runs (wire version 3): its blobs changed, not the writer.
#[test]
fn stores_the_block_rule_does_not_reach_are_the_parents_files() {
    use EncodingChoice::{Auto, Gzip, Raw};
    let ramps: Vec<Vec<u8>> = (0..4).map(|i| ramp((150 << 10) + 1000 * i)).collect();
    let sets = [
        ("deepcam", deepcam_blobs(10)),
        ("cosmo", cosmo_blobs(10)),
        ("short", short_blobs(10)),
        ("ramps", ramps),
    ];
    let recorded = [
        ("deepcam", Raw, 0xE13C3359),
        ("cosmo", Raw, 0x1AA672DA),
        ("cosmo", Gzip, 0x5953BFB7),
        ("cosmo", Auto, 0x70EC75B4),
        ("short", Raw, 0xE35EF715),
        ("short", Gzip, 0x7F713877),
        ("short", Auto, 0xC01C70ED),
        ("ramps", Raw, 0x13A8CB74),
        ("ramps", Gzip, 0x0E5842EA),
        ("ramps", Auto, 0xD0A4C1E4),
    ];
    for (set, encoding, want) in recorded {
        let blobs = &sets.iter().find(|(name, _)| *name == set).unwrap().1;
        let (dir, store) = origin("recorded", blobs, encoding);
        let mut all = Vec::new();
        for meta in &store.manifest().shards {
            all.extend(std::fs::read(dir.join(&meta.file)).unwrap());
        }
        all.extend(std::fs::read(dir.join(MANIFEST_FILE)).unwrap());
        assert_eq!(
            sciml_compress::crc32::crc32(&all),
            want,
            "{set} under {encoding}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Packs `blobs` three to a shard and opens the store.
fn origin(tag: &str, blobs: &[Vec<u8>], encoding: EncodingChoice) -> (PathBuf, Arc<ShardSource>) {
    let dir = tmp_dir(tag);
    let target: u64 = blobs[..3].iter().map(|b| b.len() as u64).sum();
    pack_store(
        &VecSource::new(blobs.to_vec()),
        &dir,
        PackConfig {
            target_shard_bytes: target,
            encoding,
            level: Level::Fast,
        },
    )
    .unwrap();
    let store = Arc::new(ShardSource::open(&dir).unwrap());
    (dir, store)
}

#[test]
fn mirroring_a_store_copies_its_shard_files_byte_for_byte() {
    let blobs = deepcam_blobs(8);
    for encoding in CHOICES {
        let (origin_dir, store) = origin("mirror_origin", &blobs, encoding);
        let staged_dir = tmp_dir("mirror_staged");
        let stager = Stager::new(
            store.clone(),
            store.manifest().plans(),
            &staged_dir,
            StagerConfig::default(),
        )
        .unwrap();
        let progress = stager.run().unwrap();
        assert!(progress.complete());
        // Which route it took: every entry as stored, none re-encoded.
        assert_eq!(
            (progress.verbatim_entries, progress.reencoded_entries),
            (8, 0),
            "{encoding}"
        );
        for meta in &store.manifest().shards {
            let want = std::fs::read(origin_dir.join(&meta.file)).unwrap();
            let got = std::fs::read(staged_dir.join(&meta.file)).unwrap();
            assert!(got == want, "{encoding}: {} differs", meta.file);
        }
        let staged = ShardSource::open(&staged_dir).unwrap();
        assert_eq!(staged.manifest(), store.manifest(), "{encoding}");
        assert_eq!(staged.verify().unwrap(), 8);
        std::fs::remove_dir_all(&origin_dir).ok();
        std::fs::remove_dir_all(&staged_dir).ok();
    }
}

#[test]
fn replanned_and_overridden_staging_is_what_the_sequential_writer_staged() {
    let blobs = deepcam_blobs(8);
    let run = |backing: Arc<dyn SampleSource>, plans, encoding, tag: &str| {
        let dir = tmp_dir(tag);
        let config = StagerConfig {
            encoding,
            ..StagerConfig::default()
        };
        let stager = Stager::new(backing, plans, &dir, config).unwrap();
        let progress = stager.run().unwrap();
        assert!(progress.complete());
        (dir, progress)
    };

    // A new layout over an `Auto` store: entries keep the encoding the
    // origin's policy chose for them, in shards cut elsewhere.
    let (origin_dir, store) = origin("replan_origin", &blobs, EncodingChoice::Auto);
    let (dir, progress) = run(store.clone(), plan_by_count(8, 5), None, "replan");
    assert_eq!(
        (progress.verbatim_entries, progress.reencoded_entries),
        (8, 0)
    );
    let want = reference::store_of(&blobs, &[5, 3], EncodingChoice::Auto, Level::Fast);
    assert_store_is(&dir, &want, "re-planned");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&origin_dir).ok();

    // An override re-encodes everything, stored form or not — from one
    // read of each backing entry, which `bytes_read` counts decoded.
    let blob_bytes: u64 = blobs.iter().map(|b| b.len() as u64).sum();
    let (origin_dir, store) = origin("override_packed", &blobs, EncodingChoice::Gzip);
    let plans = store.manifest().plans();
    let groups: Vec<usize> = plans.iter().map(|p| p.count as usize).collect();
    let (dir, progress) = run(store.clone(), plans, Some(EncodingChoice::Raw), "unpacked");
    assert_eq!(
        (progress.verbatim_entries, progress.reencoded_entries),
        (0, 8)
    );
    assert_eq!(store.bytes_read(), blob_bytes, "each entry once");
    let want = reference::store_of(&blobs, &groups, EncodingChoice::Raw, Level::Fast);
    assert_store_is(&dir, &want, "raw over a gzip store");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&origin_dir).ok();
    let (origin_dir, store) = origin("override_origin", &blobs, EncodingChoice::Raw);
    let plans = store.manifest().plans();
    let groups: Vec<usize> = plans.iter().map(|p| p.count as usize).collect();
    let (dir, progress) = run(store.clone(), plans, Some(EncodingChoice::Gzip), "override");
    assert_eq!(
        (progress.verbatim_entries, progress.reencoded_entries),
        (0, 8)
    );
    assert_eq!(store.bytes_read(), blob_bytes, "each entry once");
    let want = reference::store_of(&blobs, &groups, EncodingChoice::Gzip, Level::Fast);
    assert_store_is(&dir, &want, "gzip over raw");
    std::fs::remove_dir_all(&dir).ok();

    // A plan whose policy could not have produced the stored entries
    // (gzip plan, raw store) is not mirrored verbatim either.
    let store = Arc::new(ShardSource::open(&origin_dir).unwrap());
    let plans: Vec<_> = plan_by_count(8, 4)
        .into_iter()
        .map(|p| sciml_store::ShardPlan {
            encoding: EncodingChoice::Gzip,
            ..p
        })
        .collect();
    let (dir, progress) = run(store.clone(), plans, None, "disagree");
    assert_eq!(
        (progress.verbatim_entries, progress.reencoded_entries),
        (0, 8)
    );
    assert_eq!(store.bytes_read(), blob_bytes, "each entry once");
    let want = reference::store_of(&blobs, &[4, 4], EncodingChoice::Gzip, Level::Fast);
    assert_store_is(&dir, &want, "gzip plan over raw store");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&origin_dir).ok();

    // A backing with no stored form takes the same assembler through
    // the encode route.
    let backing = Arc::new(VecSource::new(blobs.clone()));
    let (dir, progress) = run(backing, plan_by_count(8, 3), None, "vec");
    assert_eq!(
        (progress.verbatim_entries, progress.reencoded_entries),
        (0, 8)
    );
    let want = reference::store_of(&blobs, &[3, 3, 2], EncodingChoice::Auto, Level::Fast);
    assert_store_is(&dir, &want, "vec backing");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn only_a_packed_store_offers_stored_entries() {
    let blobs = deepcam_blobs(4);
    let (origin_dir, store) = origin("contract", &blobs, EncodingChoice::Auto);

    // Through the concrete type, the `Arc<S>` forwarder and a trait
    // object: the same entry in the caller's buffer, which its own
    // `unpack` — and the decoder named by its encoding byte — turn into
    // the sample.
    let as_arc: Arc<ShardSource> = store.clone();
    let as_dyn: Arc<dyn SampleSource> = store.clone();
    let nested = Arc::new(as_dyn.clone());
    let views: [&dyn SampleSource; 4] = [&*store, &as_arc, &as_dyn, &nested];
    let mut direct = Vec::new();
    let mut buf = vec![0xEE; 64];
    let mut raw = Vec::new();
    for (i, blob) in blobs.iter().enumerate() {
        let entry = ShardSource::fetch_stored_into(&store, i, &mut direct)
            .unwrap()
            .unwrap();
        assert_eq!(entry.raw_len as usize, blob.len());
        assert_eq!(entry.crc32, sciml_compress::crc32::crc32(&direct));
        for view in views {
            let got = view.fetch_stored_into(i, &mut buf).unwrap().unwrap();
            assert_eq!(
                (got.encoding, got.raw_len, got.crc32, &buf),
                (entry.encoding, entry.raw_len, entry.crc32, &direct)
            );
        }

        let decoded = match PayloadEncoding::from_byte(entry.encoding).unwrap() {
            PayloadEncoding::Raw => direct.clone(),
            PayloadEncoding::Gzip => sciml_compress::gzip_decompress(&direct).unwrap(),
        };
        assert_eq!(&decoded, blob);
        match entry.unpack {
            Some(unpack) => {
                unpack(&direct, &mut raw, blob.len()).unwrap();
                assert_eq!(&raw, blob);
            }
            None => assert_eq!(entry.encoding, PayloadEncoding::Raw.as_byte()),
        }
    }
    assert!(
        store.fetch_stored_into(blobs.len(), &mut buf).is_err(),
        "out of range"
    );

    // Sources with no stored form hand over the sample and say so; the
    // staging view answers for whichever store serves the fetch.
    let vec = VecSource::new(blobs.clone());
    let files_dir = tmp_dir("contract_files");
    let files = DirSource::write_all(&files_dir, &blobs).unwrap();
    let staging_dir = tmp_dir("contract_staging");
    let stager = Stager::new(
        store.clone(),
        store.manifest().plans(),
        &staging_dir,
        StagerConfig::default(),
    )
    .unwrap();
    let staging = stager.source();
    for staged in [false, true] {
        for (i, blob) in blobs.iter().enumerate() {
            assert!(vec.fetch_stored_into(i, &mut buf).unwrap().is_none());
            assert_eq!(&buf, blob);
            assert!(files.fetch_stored_into(i, &mut buf).unwrap().is_none());
            assert_eq!(&buf, blob);
            let entry = staging.fetch_stored_into(i, &mut buf).unwrap().unwrap();
            store.fetch_stored_into(i, &mut direct).unwrap();
            assert_eq!((entry.raw_len as usize, &buf), (blob.len(), &direct));
        }
        let n = blobs.len() as u64;
        let want = if staged { (n, n) } else { (0, n) };
        assert_eq!((staging.local_hits(), staging.fallthroughs()), want);
        stager.run().unwrap();
    }
    for dir in [origin_dir, files_dir, staging_dir] {
        std::fs::remove_dir_all(&dir).ok();
    }
}
