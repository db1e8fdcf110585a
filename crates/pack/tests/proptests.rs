//! Property tests for the chunked compressor: bit-exact round-trips for
//! every supported element width (u8, i16-as-LE-bytes, f16-as-LE-bytes
//! are all just width-1/width-2 byte streams), plus failure injection —
//! truncation at every byte offset and single-bit flips anywhere in the
//! stream must produce a typed [`PackError`], never a panic and never a
//! silently wrong decode.

use proptest::prelude::*;
use sciml_pack::{pack, unpack, unpack_into, PackError, CHUNK_VALUES};

fn widths() -> impl Strategy<Value = u8> {
    prop_oneof![Just(1u8), Just(2u8)]
}

/// Structured generators shaped like the real workloads.
fn workload_bytes() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        // Arbitrary bytes (u8 streams, deepcam code streams).
        prop::collection::vec(any::<u8>(), 0..4096),
        // Smooth u16 ramps with jitter (quantized f16 fields).
        (0u16..1024, 1usize..1500, 0u16..8).prop_map(|(base, n, jitter)| {
            let mut out = Vec::with_capacity(n * 2);
            for i in 0..n {
                let v = base
                    .wrapping_add((i / 7) as u16)
                    .wrapping_add((i as u16).wrapping_mul(jitter) % 5);
                out.extend_from_slice(&v.to_le_bytes());
            }
            out
        }),
        // Signed i16 oscillation around zero, stored little-endian.
        (1usize..1500, 1i16..300).prop_map(|(n, amp)| {
            let mut out = Vec::with_capacity(n * 2);
            for i in 0..n {
                let v = if i % 2 == 0 { amp } else { -amp } + (i % 11) as i16;
                out.extend_from_slice(&v.to_le_bytes());
            }
            out
        }),
        // Constant runs (masks, padded regions).
        (any::<u8>(), 0usize..5000).prop_map(|(b, n)| vec![b; n]),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn roundtrip_is_bit_exact(data in workload_bytes(), width in widths()) {
        let packed = pack(&data, width).unwrap();
        prop_assert_eq!(unpack(&packed).unwrap(), data);
    }

    #[test]
    fn truncation_at_any_point_is_typed_error(data in workload_bytes(), width in widths(), frac in 0.0f64..1.0) {
        let packed = pack(&data, width).unwrap();
        let cut = ((packed.len() as f64) * frac) as usize;
        if cut < packed.len() {
            match unpack(&packed[..cut]) {
                Err(_) => {}
                // A cut exactly at the tail boundary of a width-2 stream
                // with a raw tail byte can still be complete; anything
                // else must error.
                Ok(v) => prop_assert_eq!(v, data),
            }
        }
    }

    #[test]
    fn bit_flip_anywhere_never_panics_or_lies(
        data in workload_bytes(),
        width in widths(),
        pos_frac in 0.0f64..1.0,
        bit in 0u8..8,
    ) {
        let packed = pack(&data, width).unwrap();
        if packed.is_empty() { return Ok(()); }
        let mut bad = packed.clone();
        let pos = ((bad.len() - 1) as f64 * pos_frac) as usize;
        bad[pos] ^= 1 << bit;
        match unpack(&bad) {
            Err(_) => {}
            // CRC-32 cannot miss a single-bit flip within one covered
            // region, so an Ok decode can only come from a flip in a
            // raw tail byte — and then the output differs only there.
            Ok(v) => prop_assert_eq!(v.len(), data.len()),
        }
    }

    #[test]
    fn garbage_input_never_panics(data in prop::collection::vec(any::<u8>(), 0..2048)) {
        let _ = unpack(&data);
    }

    /// A header whose three size fields say anything at all, CRC valid,
    /// over a body far too short for most of them: an error or a decode
    /// within the limit, and never a buffer sized from the header alone.
    #[test]
    fn header_size_fields_never_size_a_buffer(
        width in widths(),
        tail in 0u8..2,
        n_chunks in prop_oneof![0u32..4, any::<u32>()],
        raw_len in prop_oneof![0u64..(1 << 18), any::<u64>()],
        body in prop::collection::vec(any::<u8>(), 0..64),
        limit in prop_oneof![0usize..(1 << 18), Just(usize::MAX)],
    ) {
        let mut stream = b"SPAK".to_vec();
        stream.extend_from_slice(&[1, width, tail, 0]);
        stream.extend_from_slice(&n_chunks.to_le_bytes());
        stream.extend_from_slice(&raw_len.to_le_bytes());
        let crc = sciml_compress::crc32::crc32(&stream);
        stream.extend_from_slice(&crc.to_le_bytes());
        stream.extend_from_slice(&body);

        let mut out = Vec::new();
        let result = unpack_into(&stream, &mut out, limit);
        // 64 body bytes hold at most three chunks.
        let justified = (3 * CHUNK_VALUES * 2 + 1).min(limit).max(8);
        prop_assert!(out.capacity() <= justified, "reserved {}", out.capacity());
        match result {
            Ok(()) => {
                prop_assert_eq!(out.len() as u64, raw_len);
                prop_assert!(out.len() <= limit);
            }
            Err(PackError::TooLarge { .. }) => prop_assert!(raw_len > limit as u64),
            Err(_) => {}
        }
    }

    #[test]
    fn single_value_streams(width in widths(), b in any::<u16>()) {
        let data: Vec<u8> = if width == 1 {
            vec![b as u8]
        } else {
            b.to_le_bytes().to_vec()
        };
        let packed = pack(&data, width).unwrap();
        prop_assert_eq!(unpack(&packed).unwrap(), data);
    }
}

/// Exhaustive truncation: every prefix of a small real stream errors (or,
/// for the rare complete-prefix case, decodes to the original).
#[test]
fn truncation_at_every_byte() {
    let data: Vec<u8> = (0..900u32)
        .flat_map(|i| ((i * 7 % 1024) as u16).to_le_bytes())
        .collect();
    let packed = pack(&data, 2).unwrap();
    for cut in 0..packed.len() {
        match unpack(&packed[..cut]) {
            Err(_) => {}
            Ok(v) => assert_eq!(v, data, "prefix of {cut} bytes decoded differently"),
        }
    }
}

/// Exhaustive single-bit flips over a small stream: typed error or (for
/// flips in the uncovered raw tail) a same-length decode.
#[test]
fn bit_flip_at_every_position() {
    let mut data: Vec<u8> = (0..400u32)
        .flat_map(|i| ((i % 300) as u16).to_le_bytes())
        .collect();
    data.push(0xAA); // force a raw tail byte
    let packed = pack(&data, 2).unwrap();
    for pos in 0..packed.len() {
        for bit in 0..8 {
            let mut bad = packed.clone();
            bad[pos] ^= 1 << bit;
            match unpack(&bad) {
                Err(_) => {}
                Ok(v) => {
                    assert_eq!(v.len(), data.len());
                    assert_eq!(pos, packed.len() - 1, "non-tail flip at {pos} decoded Ok");
                }
            }
        }
    }
}

#[test]
fn empty_and_chunk_boundary_streams() {
    for width in [1u8, 2] {
        for n in [
            0usize,
            1,
            2,
            CHUNK_VALUES - 1,
            CHUNK_VALUES,
            CHUNK_VALUES + 1,
        ] {
            let data: Vec<u8> = (0..n * width as usize).map(|i| (i % 253) as u8).collect();
            let packed = pack(&data, width).unwrap();
            assert_eq!(unpack(&packed).unwrap(), data, "width {width} n {n}");
        }
    }
}

#[test]
fn error_variants_are_distinguishable() {
    assert_eq!(unpack(&[]), Err(PackError::Truncated));
    let mut p = pack(&[1, 2, 3], 1).unwrap();
    p[1] = b'Z';
    assert_eq!(unpack(&p), Err(PackError::BadMagic));
}
