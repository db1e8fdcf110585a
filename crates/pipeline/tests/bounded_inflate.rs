//! The gzip baselines inflate with a limit taken from the slot they were
//! asked to fill: a stream that inflates past the largest payload that
//! slot could hold costs a typed error, not the memory it would inflate
//! to. And a decode thread keeps one inflate buffer, not one per sample.
//!
//! Alone in this file because they measure allocation with a global
//! allocator of its own; the two tests take turns at it.

use sciml_codec::Op;
use sciml_compress::Level;
use sciml_data::cosmoflow::{CosmoFlowConfig, UniverseGenerator};
use sciml_data::serialize;
use sciml_half::F16;
use sciml_pipeline::decoder::{CosmoGzip, DeepCamGzip};
use sciml_pipeline::{DecoderPlugin, PipelineError};
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

fn requested_by<R>(f: impl FnOnce() -> R) -> (R, usize) {
    let before = REQUESTED.load(Ordering::Relaxed);
    let r = f();
    (r, REQUESTED.load(Ordering::Relaxed) - before)
}

#[test]
fn a_stream_inflating_past_the_slot_is_a_typed_error_not_an_allocation() {
    const ACTUAL: usize = 64 << 20;
    let _turn = TURN.lock().unwrap();
    // 64 MiB of zeros in about 64 KiB of gzip (DEFLATE's best ratio),
    // offered to a slot of 2 048 values.
    let bomb = sciml_compress::gzip_compress(&vec![0u8; ACTUAL], Level::Fast);
    assert!(bomb.len() < 128 << 10, "stream is {} bytes", bomb.len());
    let mut out = vec![F16::ONE; 2048];
    let plugins: [(&dyn DecoderPlugin, usize); 2] = [
        (&CosmoGzip { op: Op::Log1p }, 24 + 4 * out.len()),
        (&DeepCamGzip { op: Op::Identity }, 5 * out.len() + 4096),
    ];
    for (plugin, legitimate) in plugins {
        // On a thread of its own, so the scratch starts empty and its
        // first growth is part of what is counted.
        let (result, requested) = std::thread::scope(|t| {
            t.spawn(|| requested_by(|| plugin.decode_into(&bomb, &mut out)))
                .join()
                .unwrap()
        });
        assert!(
            matches!(
                result,
                Err(PipelineError::Compression(
                    sciml_compress::Error::OutputLimit
                ))
            ),
            "{}: {result:?}",
            plugin.name()
        );
        assert!(
            requested < 2 * legitimate,
            "{} requested {requested} bytes for a {legitimate}-byte payload",
            plugin.name()
        );
    }
}

#[test]
fn repeat_gzip_decodes_reuse_one_inflate_buffer() {
    let _turn = TURN.lock().unwrap();
    let s = UniverseGenerator::new(CosmoFlowConfig::test_small()).generate(0);
    let raw = serialize::cosmo_to_payload(&s);
    let gz = CosmoGzip::compress_payload(&raw);
    let plugin = CosmoGzip { op: Op::Log1p };
    let want = plugin.decode(&gz).unwrap();
    let mut out = vec![F16::ONE; want.data.len()];
    plugin.decode_into(&gz, &mut out).unwrap();
    assert_eq!(out, want.data);
    const REPEATS: usize = 8;
    let ((), requested) = requested_by(|| {
        for _ in 0..REPEATS {
            out.fill(F16::ONE);
            plugin.decode_into(&gz, &mut out).unwrap();
        }
    });
    assert_eq!(out, want.data);
    assert!(
        requested < raw.len() / 4,
        "{REPEATS} decodes of a {}-byte payload requested {requested} bytes",
        raw.len()
    );
}
