//! Property tests: DEFLATE/gzip must round-trip arbitrary byte vectors at
//! every compression level, and corrupted trailers must be rejected.

use proptest::prelude::*;
use sciml_compress::{deflate_compress, gzip_compress, gzip_decompress, inflate, Error, Level};

fn levels() -> impl Strategy<Value = Level> {
    prop_oneof![
        Just(Level::Fastest),
        Just(Level::Fast),
        Just(Level::Default),
        Just(Level::Best),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn deflate_roundtrip_random(data in prop::collection::vec(any::<u8>(), 0..8192), level in levels()) {
        let c = deflate_compress(&data, level);
        prop_assert_eq!(inflate(&c).unwrap(), data);
    }

    #[test]
    fn deflate_roundtrip_structured(
        pattern in prop::collection::vec(any::<u8>(), 1..64),
        repeats in 1usize..200,
        level in levels(),
    ) {
        let data: Vec<u8> = pattern.iter().cycle().take(pattern.len() * repeats).copied().collect();
        let c = deflate_compress(&data, level);
        prop_assert_eq!(inflate(&c).unwrap(), data);
    }

    #[test]
    fn gzip_roundtrip(data in prop::collection::vec(any::<u8>(), 0..4096), level in levels()) {
        let gz = gzip_compress(&data, level);
        prop_assert_eq!(gzip_decompress(&gz).unwrap(), data);
    }

    #[test]
    fn gzip_detects_single_byte_corruption_in_trailer(
        data in prop::collection::vec(any::<u8>(), 1..512),
        which in 0usize..8,
        bit in 0u8..8,
    ) {
        let mut gz = gzip_compress(&data, Level::Default);
        let n = gz.len();
        gz[n - 8 + which] ^= 1 << bit;
        // Trailer corruption must surface as *some* error (checksum, or a
        // stream error if the flipped byte happens to matter earlier).
        prop_assert!(gzip_decompress(&gz).is_err());
    }

    #[test]
    fn truncated_gzip_always_errors(data in prop::collection::vec(any::<u8>(), 0..512), frac in 0.0f64..1.0) {
        let gz = gzip_compress(&data, Level::Default);
        let cut = ((gz.len() as f64) * frac) as usize;
        if cut < gz.len() {
            prop_assert!(gzip_decompress(&gz[..cut]).is_err());
        }
    }

    #[test]
    fn inflate_never_panics_on_garbage(data in prop::collection::vec(any::<u8>(), 0..2048)) {
        // Arbitrary bytes: must return Ok or Err, never panic or hang.
        let _ = inflate(&data);
    }

    #[test]
    fn gzip_of_highly_compressible_is_small(byte in any::<u8>(), n in 1000usize..50_000) {
        let data = vec![byte; n];
        let gz = gzip_compress(&data, Level::Default);
        prop_assert!(gz.len() < n / 50 + 64, "{} for {}", gz.len(), n);
    }
}

#[test]
fn checksum_error_type_is_distinguishable() {
    let data = b"distinguish me".repeat(8);
    let mut gz = gzip_compress(&data, Level::Default);
    let n = gz.len();
    gz[n - 5] ^= 0x40; // inside CRC field
    assert_eq!(gzip_decompress(&gz), Err(Error::ChecksumMismatch));
}
