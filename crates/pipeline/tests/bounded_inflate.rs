//! The baselines read each layout through one push-fed reader, the gzip
//! ones through an inflate window with a limit taken from the slot they
//! were asked to fill: a valid sample costs a decode thread no more heap
//! than the window bound (and DeepCAM's label) — the uncompressed
//! baselines no more than the reader's `h5lite` directory (and the
//! label) — and a stream that inflates past the largest payload the
//! slot could hold costs a typed error, not the memory it would inflate
//! to. And repeat decodes allocate nothing of the payload's size.
//!
//! Alone in this file because they measure allocation with a global
//! allocator of its own; the tests take turns at it.

use sciml_codec::Op;
use sciml_compress::Level;
use sciml_data::cosmoflow::{CosmoFlowConfig, UniverseGenerator};
use sciml_data::deepcam::{ClimateGenerator, DeepCamConfig};
use sciml_data::serialize;
use sciml_half::F16;
use sciml_pipeline::decoder::{CosmoBaseline, CosmoGzip, DeepCamBaseline, DeepCamGzip};
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

/// The most heap a gzip baseline's decode may ask for besides the label:
/// the window's 128 KiB lives on the decode thread's stack, and the
/// bound is twice that.
const WINDOW_BOUND: usize = 256 << 10;

/// The most heap an uncompressed baseline's decode may ask for besides
/// the label: the `h5lite` reader's directory entries (two, a few
/// hundred bytes in all), and nothing for a `CFSM` payload.
const DIRECTORY_BOUND: usize = 4 << 10;

/// What `plugin.decode_into(gz, out)` returned and the heap it asked for,
/// on a thread of its own, so that nothing a thread keeps from an
/// earlier decode is missed.
fn decode_on_a_fresh_thread(
    plugin: &dyn DecoderPlugin,
    gz: &[u8],
    out: &mut [F16],
) -> (Result<sciml_pipeline::Label, PipelineError>, usize) {
    std::thread::scope(|t| {
        t.spawn(|| requested_by(|| plugin.decode_into(gz, out)))
            .join()
            .unwrap()
    })
}

#[test]
fn a_stream_inflating_past_the_slot_is_a_typed_error_not_an_allocation() {
    const ACTUAL: usize = 64 << 20;
    let _turn = TURN.lock().unwrap();
    // 64 MiB of zeros in about 64 KiB of gzip (DEFLATE's best ratio),
    // offered to a slot of 2 048 values.
    let bomb = sciml_compress::gzip_compress(&vec![0u8; ACTUAL], Level::Fast);
    assert!(bomb.len() < 128 << 10, "stream is {} bytes", bomb.len());
    // The same stream under a trailer that says it is empty: it is found
    // only by inflating, through the window.
    let mut lying = bomb.clone();
    let n = lying.len();
    lying[n - 8..].copy_from_slice(&[0, 0, 0, 0, 0, 0, 0, 0]);
    let mut out = vec![F16::ONE; 2048];
    let plugins: [(&dyn DecoderPlugin, usize); 2] = [
        (&CosmoGzip { op: Op::Log1p }, WINDOW_BOUND),
        (&DeepCamGzip { op: Op::Identity }, WINDOW_BOUND + out.len()),
    ];
    for (plugin, legitimate) in plugins {
        let (result, requested) = decode_on_a_fresh_thread(plugin, &bomb, &mut out);
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
        let (result, requested) = decode_on_a_fresh_thread(plugin, &lying, &mut out);
        assert!(result.is_err(), "{}: lying trailer", plugin.name());
        assert!(
            requested < 2 * legitimate,
            "{} requested {requested} bytes for a lying trailer",
            plugin.name()
        );
    }
}

/// A valid sample of each baseline decodes within its bound: nothing of
/// the payload's size is allocated.
#[test]
fn a_valid_sample_decodes_within_the_window_bound() {
    let _turn = TURN.lock().unwrap();
    let s = UniverseGenerator::new(CosmoFlowConfig::test_small()).generate(0);
    let raw = serialize::cosmo_to_payload(&s);
    let cosmo = CosmoGzip::compress_payload(&raw);
    let d = ClimateGenerator::new(DeepCamConfig::test_small()).generate(0);
    let h5 = serialize::deepcam_to_h5(&d).unwrap();
    let deepcam = sciml_compress::gzip_compress(&h5, Level::Fast);
    let cases: [(&dyn DecoderPlugin, &[u8], usize, usize); 4] = [
        (
            &CosmoGzip { op: Op::Log1p },
            &cosmo,
            s.counts.len(),
            WINDOW_BOUND,
        ),
        (
            &DeepCamGzip { op: Op::Identity },
            &deepcam,
            d.data.len(),
            WINDOW_BOUND + d.mask.len(),
        ),
        (
            &CosmoBaseline { op: Op::Log1p },
            &raw,
            s.counts.len(),
            DIRECTORY_BOUND,
        ),
        (
            &DeepCamBaseline { op: Op::Identity },
            &h5,
            d.data.len(),
            DIRECTORY_BOUND + d.mask.len(),
        ),
    ];
    for (plugin, gz, n, legitimate) in cases {
        let mut out = vec![F16::ONE; n];
        let (result, requested) = decode_on_a_fresh_thread(plugin, gz, &mut out);
        assert!(result.is_ok(), "{}: {result:?}", plugin.name());
        assert_eq!(out, plugin.decode(gz).unwrap().data, "{}", plugin.name());
        assert!(
            requested < 2 * legitimate,
            "{} requested {requested} bytes to decode a {}-byte payload",
            plugin.name(),
            4 * n
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
