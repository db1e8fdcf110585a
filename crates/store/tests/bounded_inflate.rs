//! A shard entry that lies about its inflated size must cost a typed
//! error, not the memory it would inflate to: `ShardReader::fetch_into`
//! inflates gzip entries with the index's `raw_len` as a hard limit.
//!
//! And a fetch must not pay for a stored-size buffer each call: the
//! stored bytes of a gzip entry go through a per-thread scratch.
//!
//! And stored DEFLATE blocks, which is what most of an `Auto` entry of
//! incompressible data is made of since the compressor stopped coding
//! blocks that coding does not shrink by an eighth: hostile ones are a
//! typed error or the right bytes within the same bound.
//!
//! Alone in this file because they measure allocation with a global
//! allocator of its own; the tests take turns at it.

use sciml_compress::crc32::crc32;
use sciml_compress::Level;
use sciml_store::shard::unpack_entry;
use sciml_store::{
    encode_entry, write_shard, EncodingChoice, PayloadEncoding, ShardReader, StoreError,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Counts every byte ever requested (frees are not subtracted: the
/// bound below is on what was asked for, not on what was live).
struct Counting;

static REQUESTED: AtomicUsize = AtomicUsize::new(0);

// SAFETY: defers to `System` for every operation; the counter has no
// bearing on the memory handed out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        REQUESTED.fetch_add(layout.size(), Ordering::Relaxed);
        // SAFETY: same layout, passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        REQUESTED.fetch_add(new_size.saturating_sub(layout.size()), Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Serialises the tests: they read one counter.
static TURN: std::sync::Mutex<()> = std::sync::Mutex::new(());

const TRAILER_LEN: usize = 24;
const ENTRY_LEN: usize = 21;

#[test]
fn entry_inflating_past_its_declared_size_is_a_typed_error_not_an_allocation() {
    const DECLARED: u32 = 1024;
    const ACTUAL: usize = 64 << 20;
    let _turn = TURN.lock().unwrap();
    let dir = std::env::temp_dir().join(format!("sciml_bounded_inflate_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();

    // An honest one-entry gzip shard of 64 MiB of zeros (about 64 KiB
    // stored), then the entry's raw_len rewritten to 1 KiB and the
    // index CRC with it: every integrity check still passes.
    let entry = encode_entry(vec![0u8; ACTUAL], EncodingChoice::Gzip, Level::Fast).unwrap();
    let meta = write_shard(&dir, 0, &[entry], 0, EncodingChoice::Gzip).unwrap();
    let path = dir.join(&meta.file);
    let mut bytes = std::fs::read(&path).unwrap();
    assert!(bytes.len() < 128 << 10, "stored size {}", bytes.len());
    let index = bytes.len() - TRAILER_LEN - ENTRY_LEN;
    let raw_len = index + 12..index + 16;
    assert_eq!(bytes[raw_len.clone()], (ACTUAL as u32).to_le_bytes());
    bytes[raw_len].copy_from_slice(&DECLARED.to_le_bytes());
    let index_crc = crc32(&bytes[index..index + ENTRY_LEN]);
    let trailer = bytes.len() - TRAILER_LEN;
    bytes[trailer + 16..trailer + 20].copy_from_slice(&index_crc.to_le_bytes());
    std::fs::write(&path, &bytes).unwrap();
    drop(bytes);

    let reader = ShardReader::open(&path).unwrap();
    reader.verify().unwrap();
    assert_eq!(reader.raw_len(0), Some(DECLARED));
    let mut buf = Vec::new();
    let before = REQUESTED.load(Ordering::Relaxed);
    let result = reader.fetch_into(0, &mut buf);
    let requested = REQUESTED.load(Ordering::Relaxed) - before;
    assert!(
        matches!(
            result,
            Err(StoreError::Compression(sciml_compress::Error::OutputLimit))
        ),
        "{result:?}"
    );
    assert!(requested < 1 << 20, "fetch requested {requested} bytes");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn repeat_gzip_fetches_reuse_one_stored_buffer() {
    let _turn = TURN.lock().unwrap();
    let dir = std::env::temp_dir().join(format!("sciml_stored_scratch_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();

    // Incompressible, so the stored form is as long as the sample.
    let mut x = 0x2545_F491_4F6C_DD1Du64;
    let raw: Vec<u8> = (0..256 << 10)
        .map(|_| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (x >> 56) as u8
        })
        .collect();
    let entry = encode_entry(raw.clone(), EncodingChoice::Gzip, Level::Fast).unwrap();
    let stored_len = entry.stored.len();
    assert!(stored_len >= raw.len());
    let meta = write_shard(&dir, 0, &[entry], 0, EncodingChoice::Gzip).unwrap();
    let reader = ShardReader::open(dir.join(&meta.file)).unwrap();

    let mut buf = Vec::new();
    reader.fetch_into(0, &mut buf).unwrap();
    assert_eq!(buf, raw);
    const REPEATS: usize = 8;
    let before = REQUESTED.load(Ordering::Relaxed);
    for _ in 0..REPEATS {
        reader.fetch_into(0, &mut buf).unwrap();
    }
    let requested = REQUESTED.load(Ordering::Relaxed) - before;
    assert_eq!(buf, raw);
    assert!(
        requested < stored_len,
        "{REPEATS} fetches of a {stored_len}-byte entry requested {requested} bytes"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// One stored block: header bit, LEN, NLEN (`nlen` as given, so it can
/// be wrong), then `body`, which may be shorter or longer than LEN.
fn stored_block(last: bool, len: u16, nlen: u16, body: &[u8]) -> Vec<u8> {
    let mut block = vec![last as u8];
    block.extend_from_slice(&len.to_le_bytes());
    block.extend_from_slice(&nlen.to_le_bytes());
    block.extend_from_slice(body);
    block
}

/// `payload` as honest stored blocks, each as long as one can be.
fn stored_blocks(payload: &[u8]) -> Vec<u8> {
    let n = payload.len().div_ceil(65535);
    let mut deflate = Vec::new();
    for (i, part) in payload.chunks(65535).enumerate() {
        let len = part.len() as u16;
        deflate.extend(stored_block(i + 1 == n, len, !len, part));
    }
    deflate
}

/// A gzip member around a raw DEFLATE stream, its trailer honest about
/// `payload`.
fn gzip_member(deflate: &[u8], payload: &[u8]) -> Vec<u8> {
    let mut gz = vec![0x1F, 0x8B, 8, 0, 0, 0, 0, 0, 0, 255];
    gz.extend_from_slice(deflate);
    gz.extend_from_slice(&crc32(payload).to_le_bytes());
    gz.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    gz
}

/// What a hostile member must come to.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Outcome {
    /// The payload, through both entry points.
    Bytes,
    /// `Error::Corrupt` / `Error::UnexpectedEof` from the inflater.
    Damaged,
    /// `Error::OutputLimit`.
    PastLimit,
    /// The member inflates within the limit but not to `raw_len` bytes:
    /// `gzip_decompress_into` returns it, `unpack_entry` refuses it.
    WrongLength,
}

#[test]
fn hostile_stored_blocks_are_a_typed_error_or_the_right_bytes() {
    // What the inflater's fast loop may keep past the bytes it needs
    // (`FAST_OUT_MARGIN` in `sciml_compress::inflate`).
    const MARGIN: usize = 258 + 16;
    const N: usize = 100_000;
    let _turn = TURN.lock().unwrap();
    let payload: Vec<u8> = (0..N as u32).map(|i| (i * 7 + i / 251) as u8).collect();
    let honest = stored_blocks(&payload);
    let longer: Vec<u8> = [&payload[..], &[9]].concat();

    let mut bad_nlen = stored_block(false, 5, !5, b"first");
    bad_nlen.extend(stored_block(true, 5, !5 ^ 0x0100, b"again"));
    let mut many_empty = Vec::new();
    for _ in 0..10_000 {
        many_empty.extend(stored_block(false, 0, !0, &[]));
    }
    many_empty.extend(&honest);

    // (what, member, raw_len the index declares, outcome)
    let table: Vec<(&str, Vec<u8>, usize, Outcome)> = vec![
        (
            "LEN and NLEN disagree",
            gzip_member(&bad_nlen, b"firstagain"),
            10,
            Outcome::Damaged,
        ),
        (
            "LEN beyond the remaining input",
            gzip_member(
                &stored_block(true, 0xFFFF, 0, &payload[..10]),
                &payload[..10],
            ),
            0xFFFF,
            Outcome::Damaged,
        ),
        (
            "LEN beyond the remaining input, nothing after the header",
            gzip_member(&stored_block(true, 0xFFFF, 0, &[]), &[])[..15].to_vec(),
            0xFFFF,
            Outcome::Damaged,
        ),
        (
            "a stored block ends exactly at the limit",
            gzip_member(&honest, &payload),
            N,
            Outcome::Bytes,
        ),
        (
            "a stored block ends one byte past the limit",
            gzip_member(&stored_blocks(&longer), &longer),
            N,
            Outcome::PastLimit,
        ),
        (
            "the first of two stored blocks already passes the limit",
            gzip_member(&honest, &payload),
            65534,
            Outcome::PastLimit,
        ),
        (
            "10 000 empty stored blocks in front of the payload",
            gzip_member(&many_empty, &payload),
            N,
            Outcome::Bytes,
        ),
        (
            "raw_len one short of what the member holds",
            gzip_member(&honest, &payload),
            N - 1,
            Outcome::PastLimit,
        ),
        (
            "raw_len one more than the member holds",
            gzip_member(&honest, &payload),
            N + 1,
            Outcome::WrongLength,
        ),
        (
            "raw_len far more than the member holds",
            gzip_member(&stored_block(true, 3, !3, b"abc"), b"abc"),
            1 << 20,
            Outcome::WrongLength,
        ),
    ];

    for (what, member, raw_len, outcome) in &table {
        let (raw_len, outcome) = (*raw_len, *outcome);

        let mut out = Vec::new();
        let before = REQUESTED.load(Ordering::Relaxed);
        let inflated = sciml_compress::gzip_decompress_into(member, &mut out, raw_len);
        let requested = REQUESTED.load(Ordering::Relaxed) - before;
        assert!(out.len() <= raw_len, "{what}: {} bytes out", out.len());
        assert!(
            requested <= raw_len + MARGIN,
            "{what}: inflate requested {requested} bytes for a raw_len of {raw_len}"
        );
        match outcome {
            Outcome::Bytes => assert!(inflated.is_ok() && out == payload, "{what}: {inflated:?}"),
            Outcome::WrongLength => assert!(inflated.is_ok() && out.len() < raw_len, "{what}"),
            Outcome::PastLimit => {
                assert_eq!(inflated, Err(sciml_compress::Error::OutputLimit), "{what}")
            }
            Outcome::Damaged => assert!(
                matches!(
                    inflated,
                    Err(sciml_compress::Error::Corrupt(_) | sciml_compress::Error::UnexpectedEof)
                ),
                "{what}: {inflated:?}"
            ),
        }

        let mut out = Vec::new();
        let before = REQUESTED.load(Ordering::Relaxed);
        let unpacked = unpack_entry(PayloadEncoding::Gzip, member, &mut out, raw_len);
        let requested = REQUESTED.load(Ordering::Relaxed) - before;
        assert!(out.len() <= raw_len, "{what}: {} bytes unpacked", out.len());
        assert!(
            requested <= raw_len + MARGIN,
            "{what}: unpack requested {requested} bytes for a raw_len of {raw_len}"
        );
        match outcome {
            Outcome::Bytes => assert!(unpacked.is_ok() && out == payload, "{what}: {unpacked:?}"),
            Outcome::WrongLength => {
                assert!(
                    matches!(unpacked, Err(StoreError::Malformed(_))),
                    "{what}: {unpacked:?}"
                )
            }
            Outcome::PastLimit => assert!(
                matches!(
                    unpacked,
                    Err(StoreError::Compression(sciml_compress::Error::OutputLimit))
                ),
                "{what}: {unpacked:?}"
            ),
            Outcome::Damaged => assert!(
                matches!(unpacked, Err(StoreError::Compression(_))),
                "{what}: {unpacked:?}"
            ),
        }
    }
}
