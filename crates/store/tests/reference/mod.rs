//! The shard writer as it stood before it was split into `encode_entry`
//! and `assemble_shard`: one thread, one sample after another, encode
//! and layout in a single pass. Frozen as the oracle the write-path
//! tests compare against: packing on more cores or staging stored
//! bytes verbatim may not change a byte of a shard file or a manifest.
//!
//! Do not "fix" or speed up anything here — a change to this file
//! changes what "the same bytes" means. (The pack-encoding arms left
//! with the encoding; what remains is the parent's code for every entry
//! it did not store as pack, including `Auto`'s trial deflate followed
//! by a full one. `Auto`'s verdict is the policy's, not the writer's:
//! when the trial moved from the head to the middle of a payload and a
//! member came to be kept only where it saves an eighth, the `Auto`
//! arm took that rule and nothing else.)

use sciml_compress::crc32::crc32;
use sciml_compress::Level;
use sciml_store::{EncodingChoice, PayloadEncoding, ShardMeta, StoreManifest};

const HEADER_MAGIC: &[u8; 4] = b"SSHD";
const TRAILER_MAGIC: &[u8; 4] = b"SSFT";
const VERSION: u16 = 2;
const HEADER_LEN: usize = 16;
const ENTRY_LEN: usize = 21;
const TRAILER_LEN: usize = 24;
const TRIAL_SAMPLE_BYTES: usize = 8192;

fn encode_payload(raw: &[u8], choice: EncodingChoice, level: Level) -> (PayloadEncoding, Vec<u8>) {
    let encoded = match choice {
        EncodingChoice::Raw => None,
        EncodingChoice::Gzip => Some((
            PayloadEncoding::Gzip,
            sciml_compress::gzip_compress(raw, level),
        )),
        EncodingChoice::Auto => {
            let pays = |stored: usize, raw: usize| stored <= raw - raw / 8;
            let start = raw.len().saturating_sub(TRIAL_SAMPLE_BYTES) / 2;
            let sample = &raw[start..raw.len().min(start + TRIAL_SAMPLE_BYTES)];
            let gz_trial = sciml_compress::gzip_compress(sample, level).len();
            let winner = match () {
                _ if pays(gz_trial, sample.len()) => Some((
                    PayloadEncoding::Gzip,
                    sciml_compress::gzip_compress(raw, level),
                )),
                _ => None,
            };
            winner.filter(|(_, stored)| pays(stored.len(), raw.len()))
        }
    };
    encoded.unwrap_or_else(|| (PayloadEncoding::Raw, raw.to_vec()))
}

/// The complete file image of one shard holding `samples`.
pub fn encode_shard(
    samples: &[Vec<u8>],
    base: u64,
    encoding: EncodingChoice,
    level: Level,
) -> Vec<u8> {
    let mut out =
        Vec::with_capacity(HEADER_LEN + TRAILER_LEN + samples.iter().map(Vec::len).sum::<usize>());
    out.extend_from_slice(HEADER_MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&0u16.to_le_bytes());
    out.extend_from_slice(&base.to_le_bytes());

    let mut index = Vec::with_capacity(samples.len() * ENTRY_LEN);
    for raw in samples {
        let (enc, stored) = encode_payload(raw, encoding, level);
        let offset = out.len() as u64;
        index.extend_from_slice(&offset.to_le_bytes());
        index.extend_from_slice(&(stored.len() as u32).to_le_bytes());
        index.extend_from_slice(&(raw.len() as u32).to_le_bytes());
        index.extend_from_slice(&crc32(&stored).to_le_bytes());
        index.push(enc.as_byte());
        out.extend_from_slice(&stored);
    }

    let index_offset = out.len() as u64;
    let index_crc = crc32(&index);
    out.extend_from_slice(&index);
    out.extend_from_slice(&index_offset.to_le_bytes());
    out.extend_from_slice(&(samples.len() as u64).to_le_bytes());
    out.extend_from_slice(&index_crc.to_le_bytes());
    out.extend_from_slice(TRAILER_MAGIC);
    out
}

/// A store as the sequential writer lays it out: every shard's file
/// image in id order, and the manifest describing them.
pub struct Store {
    pub images: Vec<Vec<u8>>,
    pub manifest: StoreManifest,
}

/// The store a writer produces when it cuts a shard after each of
/// `groups` (sample counts, in order).
pub fn store_of(
    samples: &[Vec<u8>],
    groups: &[usize],
    encoding: EncodingChoice,
    level: Level,
) -> Store {
    let mut images = Vec::new();
    let mut shards = Vec::new();
    let mut base = 0usize;
    for (id, &count) in groups.iter().enumerate() {
        let image = encode_shard(&samples[base..base + count], base as u64, encoding, level);
        shards.push(ShardMeta {
            id: id as u32,
            file: format!("shard_{id:06}.sshard"),
            first: base as u64,
            count: count as u64,
            bytes: image.len() as u64,
            crc32: crc32(&image),
            encoding,
        });
        images.push(image);
        base += count;
    }
    assert_eq!(base, samples.len(), "groups must cover every sample");
    Store {
        images,
        manifest: StoreManifest { shards },
    }
}

/// The groups `pack_store` cuts: a shard closes once its raw bytes
/// reach `target`, and the last one takes what is left.
pub fn groups_by_bytes(samples: &[Vec<u8>], target: u64) -> Vec<usize> {
    let mut groups = Vec::new();
    let (mut count, mut bytes) = (0usize, 0u64);
    for s in samples {
        count += 1;
        bytes += s.len() as u64;
        if bytes >= target {
            groups.push(count);
            (count, bytes) = (0, 0);
        }
    }
    if count > 0 {
        groups.push(count);
    }
    groups
}
