//! gzip (RFC 1952) member framing around raw DEFLATE.

use crate::bitstream::BitWriter;
use crate::crc32::{crc32, Crc32};
use crate::{deflate, inflate, Error, Level};

const MAGIC: [u8; 2] = [0x1F, 0x8B];
const CM_DEFLATE: u8 = 8;

const FTEXT: u8 = 1 << 0;
const FHCRC: u8 = 1 << 1;
const FEXTRA: u8 = 1 << 2;
const FNAME: u8 = 1 << 3;
const FCOMMENT: u8 = 1 << 4;

/// The most a DEFLATE stream can expand: a 258-byte match costs at
/// least two bits.
pub const MAX_EXPANSION: usize = 1032;

/// Compresses `data` into a single gzip member (no name, zero mtime,
/// "unknown" OS — deterministic output for a given input and level).
pub fn compress(data: &[u8], level: Level) -> Vec<u8> {
    let mut w = BitWriter::with_capacity(data.len() / 2 + 32);
    w.write_bytes(&MAGIC);
    let xfl = match level {
        Level::Best => 2,
        Level::Fastest => 4,
        _ => 0,
    };
    // CM, FLG (no optional fields), MTIME x 4, XFL, OS (unknown).
    w.write_bytes(&[CM_DEFLATE, 0, 0, 0, 0, 0, xfl, 255]);
    deflate::compress_into(&mut w, data, level);
    let mut out = w.finish();
    out.extend_from_slice(&crc32(data).to_le_bytes());
    out.extend_from_slice(&(data.len() as u32).to_le_bytes());
    out
}

/// Decompresses one member into `out`, replacing its contents (never
/// beyond `limit` bytes), and returns the bytes consumed (header +
/// deflate stream + trailer).
fn decompress_member(data: &[u8], out: &mut Vec<u8>, limit: usize) -> Result<usize, Error> {
    let body_start = parse_header(data)?;
    // The length field at the very end is this member's own when the
    // member is alone, as it nearly always is. It is a capacity hint
    // and no more: capped by what the input could possibly expand to,
    // and the output grows past it if the stream does.
    if let Some(&isize_field) = data.last_chunk::<4>() {
        let hint = (u32::from_le_bytes(isize_field) as usize)
            .min(data.len().saturating_mul(MAX_EXPANSION))
            .min(limit);
        out.reserve(hint.saturating_sub(out.len()));
    }
    let body_consumed = inflate::inflate_over(&data[body_start..], out, 0, limit)?;
    let trailer_start = body_start + body_consumed;
    let (want_crc, want_len) = trailer(data, trailer_start)?;
    if crc32(out) != want_crc || out.len() as u32 != want_len {
        return Err(Error::ChecksumMismatch);
    }
    Ok(trailer_start + 8)
}

/// The CRC-32 and ISIZE of the trailer at `at`.
fn trailer(data: &[u8], at: usize) -> Result<(u32, u32), Error> {
    let &[c0, c1, c2, c3, l0, l1, l2, l3] = data
        .get(at..)
        .and_then(|t| t.first_chunk::<8>())
        .ok_or(Error::UnexpectedEof)?;
    Ok((
        u32::from_le_bytes([c0, c1, c2, c3]),
        u32::from_le_bytes([l0, l1, l2, l3]),
    ))
}

/// Parses a member header, returning the offset of the deflate body.
fn parse_header(data: &[u8]) -> Result<usize, Error> {
    let mut pos = 0usize;
    let need = |pos: usize, n: usize| -> Result<(), Error> {
        if pos + n > data.len() {
            Err(Error::UnexpectedEof)
        } else {
            Ok(())
        }
    };

    need(pos, 10)?;
    if data[0..2] != MAGIC {
        return Err(Error::BadHeader("magic bytes"));
    }
    if data[2] != CM_DEFLATE {
        return Err(Error::BadHeader("compression method"));
    }
    let flg = data[3];
    if flg & !(FTEXT | FHCRC | FEXTRA | FNAME | FCOMMENT) != 0 {
        return Err(Error::BadHeader("reserved flag bits"));
    }
    pos = 10;

    if flg & FEXTRA != 0 {
        need(pos, 2)?;
        let xlen = u16::from_le_bytes([data[pos], data[pos + 1]]) as usize;
        pos += 2;
        need(pos, xlen)?;
        pos += xlen;
    }
    for flag in [FNAME, FCOMMENT] {
        if flg & flag != 0 {
            // Zero-terminated string.
            let end = data[pos..]
                .iter()
                .position(|&b| b == 0)
                .ok_or(Error::UnexpectedEof)?;
            pos += end + 1;
        }
    }
    if flg & FHCRC != 0 {
        need(pos, 2)?;
        let stored = u16::from_le_bytes([data[pos], data[pos + 1]]);
        let mut c = Crc32::new();
        c.update(&data[..pos]);
        if (c.finalize() & 0xFFFF) as u16 != stored {
            return Err(Error::ChecksumMismatch);
        }
        pos += 2;
    }
    Ok(pos)
}

/// Decompresses a single-member gzip file, verifying the trailer.
pub fn decompress(data: &[u8]) -> Result<Vec<u8>, Error> {
    let mut out = Vec::new();
    decompress_into(data, &mut out, usize::MAX)?;
    Ok(out)
}

/// [`decompress`] into a caller's buffer, replacing its contents, with
/// a hard limit on the output: a member that inflates to more than
/// `limit` bytes is [`Error::OutputLimit`], found before `out` has grown
/// past `limit`. The buffer's length on entry is room the output
/// overwrites, so a buffer reused from a longer member is neither
/// zero-filled again nor reallocated, and one with `limit` bytes of
/// capacity is never reallocated. On error the contents of `out` are
/// unspecified.
pub fn decompress_into(data: &[u8], out: &mut Vec<u8>, limit: usize) -> Result<(), Error> {
    let consumed = decompress_member(data, out, limit)?;
    if consumed != data.len() {
        return Err(Error::Corrupt("trailing bytes after gzip member"));
    }
    Ok(())
}

/// Decompresses a single-member gzip file through a window on the
/// stack, handing its output to `emit` a run at a time, in order, and
/// checking CRC-32 and ISIZE as the runs go by. A member whose trailer
/// declares more than `limit` bytes is [`Error::OutputLimit`] before
/// anything is inflated (a valid member inflates to at least that
/// many), and one that would emit more than `limit` is refused before
/// it does. `emit` has seen every byte when the trailer is checked, so
/// a consumer that keeps what it was given must not trust it until this
/// returns `Ok`.
pub(crate) fn decompress_chunks(
    data: &[u8],
    limit: usize,
    emit: &mut inflate::Emit<'_>,
) -> Result<(), Error> {
    let body_start = parse_header(data)?;
    if let Some(&isize_field) = data.last_chunk::<4>() {
        if u32::from_le_bytes(isize_field) as usize > limit {
            return Err(Error::OutputLimit);
        }
    }
    let mut crc = Crc32::new();
    let mut len = 0usize;
    let mut window = [0u8; inflate::WINDOW_BUF];
    let body_consumed = inflate::inflate_chunks(
        &data[body_start..],
        &mut window,
        limit,
        &mut |run: &[u8]| {
            crc.update(run);
            len += run.len();
            emit(run)
        },
    )?;
    let trailer_start = body_start + body_consumed;
    let (want_crc, want_len) = trailer(data, trailer_start)?;
    if crc.finalize() != want_crc || len as u32 != want_len {
        return Err(Error::ChecksumMismatch);
    }
    if trailer_start + 8 != data.len() {
        return Err(Error::Corrupt("trailing bytes after gzip member"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let data = b"gzip framing test".repeat(100);
        let gz = compress(&data, Level::Default);
        assert_eq!(decompress(&gz).unwrap(), data);
    }

    #[test]
    fn header_fields() {
        let gz = compress(b"x", Level::Best);
        assert_eq!(&gz[0..2], &MAGIC);
        assert_eq!(gz[2], CM_DEFLATE);
        assert_eq!(gz[3], 0);
        assert_eq!(gz[8], 2); // XFL for Best
        assert_eq!(gz[9], 255);
    }

    #[test]
    fn rejects_bad_magic() {
        let mut gz = compress(b"x", Level::Default);
        gz[0] = 0;
        assert_eq!(decompress(&gz), Err(Error::BadHeader("magic bytes")));
    }

    #[test]
    fn rejects_corrupt_payload_crc() {
        let data = b"payload corruption check".repeat(10);
        let mut gz = compress(&data, Level::Default);
        // Flip a bit in the stored CRC.
        let n = gz.len();
        gz[n - 6] ^= 1;
        assert_eq!(decompress(&gz), Err(Error::ChecksumMismatch));
    }

    #[test]
    fn rejects_wrong_isize() {
        let data = vec![9u8; 100];
        let mut gz = compress(&data, Level::Default);
        let n = gz.len();
        gz[n - 1] ^= 0x80;
        assert_eq!(decompress(&gz), Err(Error::ChecksumMismatch));
    }

    #[test]
    fn rejects_truncated_member() {
        let gz = compress(b"hello", Level::Default);
        for cut in 0..gz.len() {
            assert!(decompress(&gz[..cut]).is_err(), "cut at {cut}");
        }
        // A member with a second one after it is refused as well.
        let cat = [gz.clone(), compress(b"beta", Level::Best)].concat();
        assert!(matches!(decompress(&cat), Err(Error::Corrupt(_))));
    }

    /// A reused buffer's length is room: a member inflates over it in
    /// place, neither reallocated nor zero-filled first, and the buffer
    /// ends at the member's last byte.
    #[test]
    fn decompress_into_overwrites_a_reused_buffer_in_place() {
        let long: Vec<u8> = (0..300_000u32).map(|i| (i % 251) as u8).collect();
        let short = b"a shorter member".repeat(50);
        let mut out = Vec::with_capacity(long.len());
        let (ptr, cap) = (out.as_ptr(), out.capacity());
        for data in [&long[..], &short[..], &long[..], &short[..]] {
            decompress_into(&compress(data, Level::Fast), &mut out, long.len()).unwrap();
            assert!(out == data, "{} bytes", data.len());
            assert_eq!((out.as_ptr(), out.capacity()), (ptr, cap));
        }
        // Room past the limit is not output: a member one byte over it is
        // refused, and the buffer has not grown.
        let mut out = vec![7u8; long.len() + 1000];
        let (ptr, cap) = (out.as_ptr(), out.capacity());
        let gz = compress(&long, Level::Fast);
        assert_eq!(
            decompress_into(&gz, &mut out, long.len() - 1),
            Err(Error::OutputLimit)
        );
        assert!(out.len() < long.len());
        assert_eq!((out.as_ptr(), out.capacity()), (ptr, cap));
        // From an empty buffer, it grows no further than the limit.
        let mut out = Vec::new();
        assert_eq!(
            decompress_into(&gz, &mut out, 4096),
            Err(Error::OutputLimit)
        );
        assert!(out.capacity() <= 4096, "{}", out.capacity());
    }

    #[test]
    fn skips_fname_field() {
        // Hand-build a member with FNAME set.
        let inner = compress(b"named", Level::Default);
        let mut gz = Vec::new();
        gz.extend_from_slice(&inner[..3]);
        gz.push(FNAME);
        gz.extend_from_slice(&inner[4..10]);
        gz.extend_from_slice(b"file.bin\0");
        gz.extend_from_slice(&inner[10..]);
        assert_eq!(decompress(&gz).unwrap(), b"named");
    }
}
