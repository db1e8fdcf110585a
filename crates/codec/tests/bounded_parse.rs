//! No CosmoFlow header field sizes a buffer: what a parse asks the
//! allocator for is bounded by the bytes it was handed, whatever the
//! grid, the chunk count, the group count or the voxel count claim.
//! (`n_chunks = u32::MAX` in a 32-byte blob used to reserve 58 MB of
//! chunk list before the first read failed.) Nor does a `DCMX` blob
//! of the retired wire version 2, whose payload section once declared
//! its own unpacked size, nor a version 3 mask section whose runs do not
//! cover the image one class a pixel.
//!
//! Alone in this file because it measures allocation with a global
//! allocator of its own.

use proptest::prelude::*;
use sciml_codec::cosmoflow::{CosmoView, EncodedCosmo};
use sciml_codec::deepcam::{DeepCamView, EncodedDeepCam};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts the bytes the calling thread requests (frees are not
/// subtracted: the bound is on what was asked for, not on what was
/// live). Per thread, so the test harness's own threads do not count.
struct Counting;

thread_local! {
    static REQUESTED: Cell<usize> = const { Cell::new(0) };
}

// SAFETY: defers to `System` for every operation; the counter has no
// bearing on the memory handed out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // A thread being torn down has no counter left to add to.
        let _ = REQUESTED.try_with(|r| r.set(r.get() + layout.size()));
        // SAFETY: same layout, passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = REQUESTED.try_with(|r| r.set(r.get() + new_size.saturating_sub(layout.size())));
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn requested_by<R>(f: impl FnOnce() -> R) -> (R, usize) {
    let before = REQUESTED.with(Cell::get);
    let r = f();
    (r, REQUESTED.with(Cell::get) - before)
}

/// Values a hostile length field would carry.
fn hostile_u32() -> impl Strategy<Value = u32> {
    prop_oneof![
        0u32..6,
        any::<u32>(),
        (0u32..3).prop_map(|d| u32::MAX - d),
        60_000u32..70_000,
        (0u32..3).prop_map(|d| (1 << 20) + d),
    ]
}

/// A blob's header and first chunk's fixed fields, then `tail` bytes.
fn blob(grid: u32, n_chunks: u32, n_voxels: u32, width: u8, n_groups: u32, tail: &[u8]) -> Vec<u8> {
    let mut b = b"CFLX".to_vec();
    b.extend_from_slice(&1u32.to_le_bytes());
    b.extend_from_slice(&grid.to_le_bytes());
    b.extend_from_slice(&[0u8; 16]);
    b.extend_from_slice(&n_chunks.to_le_bytes());
    b.extend_from_slice(&n_voxels.to_le_bytes());
    b.push(width);
    b.extend_from_slice(&n_groups.to_le_bytes());
    b.extend_from_slice(tail);
    b
}

/// The owned parse keeps, for every 17 wire bytes (the smallest
/// chunk), a 56-byte `CosmoChunk` and its 8-byte table, in a list that
/// starts at four chunks and grows by doubling.
const OWNED_BYTES_PER_WIRE_BYTE: usize = 8;
const FIRST_CHUNK_LIST: usize = 4 * 56;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn no_header_field_sizes_a_buffer_beyond_the_input(
        grid in hostile_u32(),
        n_chunks in hostile_u32(),
        n_voxels in hostile_u32(),
        width in 0u8..4,
        n_groups in hostile_u32(),
        tail in prop::collection::vec(0u8..3, 0..200),
    ) {
        let data = blob(grid, n_chunks, n_voxels, width, n_groups, &tail);
        let (view, requested) = requested_by(|| CosmoView::parse(&data).map(|_| ()));
        prop_assert_eq!(requested, 0, "the borrowed parse allocated ({:?})", view);
        let (owned, requested) = requested_by(|| EncodedCosmo::from_bytes(&data));
        prop_assert!(
            requested <= OWNED_BYTES_PER_WIRE_BYTE * data.len() + FIRST_CHUNK_LIST,
            "from_bytes requested {} bytes for a {}-byte blob ({:?})",
            requested,
            data.len(),
            owned.map(|_| ())
        );
    }
}

/// The blob by name: 32 bytes, `n_chunks = u32::MAX`.
#[test]
fn a_chunk_count_of_u32_max_reserves_nothing() {
    let data = &blob(4, u32::MAX, 0, 0, 0, &[])[..32];
    assert_eq!(data[28..32], [0xFF; 4]);
    let (result, requested) = requested_by(|| EncodedCosmo::from_bytes(data));
    assert_eq!(result, Err(sciml_codec::CodecError::Truncated));
    assert_eq!(requested, 0, "requested {requested} bytes");
}

/// 69 bytes: a `DCMX` header of wire version 2 over a payload section
/// that is a `SPAK` header (`crates/pack`), its own CRC right, declaring
/// 2^24 chunks and a terabyte. Refused at the version field, before
/// anything after it is read.
#[test]
fn a_retired_dcmx_version_reserves_nothing() {
    const PACK_HEADER: [u8; 24] = [
        83, 80, 65, 75, 1, 1, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 1, 0, 0, 52, 137, 49, 151,
    ];
    let mut data = b"DCMX".to_vec();
    for field in [2u32, 4, 1, 1] {
        data.extend_from_slice(&field.to_le_bytes());
    }
    data.push(1); // one raw-f32 line: offset 0, 16 bytes
    data.extend_from_slice(&0u32.to_le_bytes());
    data.extend_from_slice(&16u32.to_le_bytes());
    data.extend_from_slice(&(PACK_HEADER.len() as u64).to_le_bytes());
    data.extend_from_slice(&PACK_HEADER);
    data.extend_from_slice(&0u64.to_le_bytes());
    assert_eq!(data.len(), 69);
    let unsupported = sciml_codec::CodecError::Corrupt("unsupported version");
    let (view, requested) = requested_by(|| DeepCamView::parse(&data).map(|_| ()));
    assert_eq!(view, Err(unsupported.clone()));
    assert_eq!(
        requested, 0,
        "the borrowed parse requested {requested} bytes"
    );
    let (owned, requested) = requested_by(|| EncodedDeepCam::from_bytes(&data));
    assert_eq!(owned, Err(unsupported));
    assert_eq!(requested, 0, "from_bytes requested {requested} bytes");
}

/// A version 3 `DCMX` blob of `lines` constant lines of `width` values
/// (one channel), whose mask section is `mask`: the runs as given, so a
/// row can claim what an encoder would never write.
fn dcmx(width: u32, lines: u32, mask: &[u8]) -> Vec<u8> {
    let mut data = b"DCMX".to_vec();
    for field in [3, width, lines, 1] {
        data.extend_from_slice(&field.to_le_bytes());
    }
    for _ in 0..lines {
        data.push(0); // constant: the one f32 at offset 0
        data.extend_from_slice(&0u32.to_le_bytes());
        data.extend_from_slice(&4u32.to_le_bytes());
    }
    data.extend_from_slice(&4u64.to_le_bytes());
    data.extend_from_slice(&1.5f32.to_le_bytes());
    data.extend_from_slice(&(mask.len() as u64).to_le_bytes());
    data.extend_from_slice(mask);
    data
}

/// `(class, pixels)` runs as the wire writes them.
fn runs(runs: &[(u8, u16)]) -> Vec<u8> {
    runs.iter()
        .flat_map(|&(class, len)| [[class].as_slice(), &len.to_le_bytes()].concat())
        .collect()
}

/// Mask sections that are not one class a pixel of a 4 × 2 image, and
/// one run under a header that claims 2³⁰ values: each a typed error
/// from both parsers, with nothing allocated — the runs are summed
/// before anything is sized from them.
#[test]
fn hostile_mask_runs_are_typed_errors_that_reserve_nothing() {
    let exceed = sciml_codec::CodecError::Inconsistent("mask runs exceed width × height");
    let short = sciml_codec::CodecError::Inconsistent("mask runs short of width × height");
    let rows = [
        (
            "past width × height",
            dcmx(4, 2, &runs(&[(0, 5), (1, 4)])),
            exceed.clone(),
        ),
        (
            "one run past it",
            dcmx(4, 2, &runs(&[(2, u16::MAX)])),
            exceed,
        ),
        (
            "short of width × height",
            dcmx(4, 2, &runs(&[(0, 5), (1, 2)])),
            short.clone(),
        ),
        (
            "a zero-length run",
            dcmx(4, 2, &runs(&[(0, 4), (1, 0), (0, 4)])),
            sciml_codec::CodecError::Corrupt("zero-length mask run"),
        ),
        (
            "a section of 3k + 1 bytes",
            dcmx(4, 2, &[runs(&[(0, 8)]), vec![0]].concat()),
            sciml_codec::CodecError::Corrupt("mask section is not whole runs"),
        ),
        (
            "three bytes under 2^30 values",
            dcmx(1 << 20, 1 << 10, &runs(&[(1, u16::MAX)])),
            short,
        ),
    ];
    for (what, data, err) in rows {
        let (view, requested) = requested_by(|| DeepCamView::parse(&data).map(|_| ()));
        assert_eq!(view, Err(err.clone()), "{what}");
        assert_eq!(
            requested, 0,
            "{what}: the borrowed parse requested {requested} bytes"
        );
        let (owned, requested) = requested_by(|| EncodedDeepCam::from_bytes(&data));
        assert_eq!(owned, Err(err), "{what}");
        assert_eq!(
            requested, 0,
            "{what}: from_bytes requested {requested} bytes"
        );
    }
    // The same blob with runs that cover the image parses, and the
    // owned parse asks for the pixels it expands into, not more.
    let data = dcmx(4, 2, &runs(&[(0, 5), (1, 3)]));
    let (view, requested) = requested_by(|| DeepCamView::parse(&data).map(|_| ()));
    assert_eq!((view, requested), (Ok(()), 0));
    let (owned, requested) = requested_by(|| EncodedDeepCam::from_bytes(&data));
    assert_eq!(owned.unwrap().mask, [0, 0, 0, 0, 0, 1, 1, 1]);
    assert!(
        requested <= 2 * 9 + 4 + 8 + 64,
        "requested {requested} bytes"
    );
}
