//! Property tests for the packed shard store: pack → index → fetch
//! must round-trip arbitrary sample sets (including zero-length
//! samples), and the manifest / journal text formats must round-trip
//! their parsers.

use proptest::prelude::*;
use sciml_pipeline::source::VecSource;
use sciml_store::manifest::{JournalEntry, ShardMeta, StagingJournal, StoreManifest};
use sciml_store::{pack_store, EncodingChoice, PackConfig, ShardReader, ShardSource};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// Unique temp dir per proptest case (cases run sequentially per test,
/// but distinct tests run in parallel threads).
fn tmp_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "sciml_prop_store_{tag}_{}_{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn samples_strategy() -> impl Strategy<Value = Vec<Vec<u8>>> {
    // Sizes 0..600 exercise zero-length payloads and multi-shard packs.
    prop::collection::vec(prop::collection::vec(any::<u8>(), 0..600), 1..24)
}

fn encodings() -> impl Strategy<Value = EncodingChoice> {
    prop_oneof![
        Just(EncodingChoice::Raw),
        Just(EncodingChoice::Gzip),
        Just(EncodingChoice::Auto),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Whatever goes into a pack comes back out, sample for sample,
    /// with every CRC intact — any encoding, any shard size target.
    #[test]
    fn pack_index_fetch_roundtrip(
        samples in samples_strategy(),
        target in 1u64..2048,
        encoding in encodings(),
    ) {
        let dir = tmp_dir("roundtrip");
        let manifest = pack_store(
            &VecSource::new(samples.clone()),
            &dir,
            PackConfig { target_shard_bytes: target, encoding, ..PackConfig::default() },
        ).unwrap();
        prop_assert_eq!(manifest.total_samples(), samples.len() as u64);

        let store = ShardSource::open(&dir).unwrap();
        prop_assert_eq!(store.verify().unwrap(), samples.len() as u64);
        for (i, expected) in samples.iter().enumerate() {
            prop_assert_eq!(&store.fetch_verified(i).unwrap(), expected);
        }
        // Out-of-range stays typed.
        prop_assert!(store.fetch_verified(samples.len()).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A single shard file round-trips through its reader regardless of
    /// sample sizes (zero-length included) and base index.
    #[test]
    fn shard_reader_roundtrip(
        samples in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..300), 0..12),
        base in 0u64..1_000_000,
        encoding in encodings(),
    ) {
        let dir = tmp_dir("shard");
        std::fs::create_dir_all(&dir).unwrap();
        let entries: Vec<_> = samples
            .iter()
            .map(|s| sciml_store::encode_entry(s.clone(), encoding, sciml_compress::Level::Fast).unwrap())
            .collect();
        let meta = sciml_store::write_shard(&dir, 0, &entries, base, encoding).unwrap();
        prop_assert_eq!(meta.first, base);
        let reader = ShardReader::open(dir.join(&meta.file)).unwrap();
        prop_assert_eq!(reader.count(), samples.len());
        prop_assert_eq!(reader.base(), base);
        reader.verify().unwrap();
        for (i, expected) in samples.iter().enumerate() {
            prop_assert_eq!(&reader.fetch(i).unwrap(), expected);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Manifest text serialization parses back to the same manifest for
    /// any structurally valid shard list.
    #[test]
    fn manifest_text_roundtrip(
        counts in prop::collection::vec(1u64..500, 1..16),
        bytes in prop::collection::vec(0u64..u32::MAX as u64, 16),
        crcs in prop::collection::vec(any::<u32>(), 16),
        encs in prop::collection::vec(encodings(), 16),
    ) {
        let mut first = 0u64;
        let shards: Vec<ShardMeta> = counts.iter().enumerate().map(|(i, &count)| {
            let m = ShardMeta {
                id: i as u32,
                file: format!("shard_{i:06}.sshard"),
                first,
                count,
                bytes: bytes[i],
                crc32: crcs[i],
                encoding: encs[i],
            };
            first += count;
            m
        }).collect();
        let manifest = StoreManifest { shards };
        let parsed = StoreManifest::parse(&manifest.to_text()).unwrap();
        prop_assert_eq!(parsed, manifest);
    }

    /// The journal's text — its header, then one `done ID CRC` line per
    /// completed shard, as `StagingJournal::append` writes it — parses
    /// back to the same entries.
    #[test]
    fn journal_text_roundtrip(
        raw in prop::collection::vec((any::<u32>(), any::<u32>()), 0..32),
    ) {
        let entries: Vec<JournalEntry> =
            raw.iter().map(|&(id, crc32)| JournalEntry { id, crc32 }).collect();
        let mut text = String::from("sciml-staging v1\n");
        for e in &entries {
            text.push_str(&format!("done {} {:08x}\n", e.id, e.crc32));
        }
        prop_assert_eq!(StagingJournal::parse(&text).unwrap(), entries);
    }

    /// Arbitrary junk handed to the parsers returns an error or a valid
    /// structure — never a panic.
    #[test]
    fn parsers_never_panic_on_garbage(bytes in prop::collection::vec(any::<u8>(), 0..400)) {
        let text = String::from_utf8_lossy(&bytes);
        let _ = StoreManifest::parse(&text);
        let _ = StagingJournal::parse(&text);
    }
}
