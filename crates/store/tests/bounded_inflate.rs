//! A shard entry that lies about its inflated size must cost a typed
//! error, not the memory it would inflate to: `ShardReader::fetch_into`
//! inflates gzip entries with the index's `raw_len` as a hard limit.
//!
//! And a fetch must not pay for a stored-size buffer each call: the
//! stored bytes of a gzip entry go through a per-thread scratch.
//!
//! Alone in this file because they measure allocation with a global
//! allocator of its own; the two tests take turns at it.

use sciml_compress::crc32::crc32;
use sciml_compress::Level;
use sciml_store::{encode_entry, write_shard, EncodingChoice, ShardReader, StoreError};
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
