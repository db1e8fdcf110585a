//! `h5lite`: a minimal self-describing binary container standing in for
//! the HDF5 files of the original DeepCAM dataset.
//!
//! Layout (all little-endian):
//!
//! ```text
//! magic "H5LT" | u16 version | u16 dataset count
//! per dataset: u16 name len | name bytes | u8 dtype | u8 ndim |
//!              ndim × u64 shape | u64 payload offset | u64 payload len
//! payload region (offsets relative to start of payload region)
//! u32 CRC-32 of everything above
//! ```
//!
//! Only the features the pipeline needs are implemented: named n-d
//! datasets of f32/u16/u8 and whole-dataset reads. That matches how the
//! benchmarks use HDF5 — one `data` and one `label` dataset per file.
//!
//! [`read`] is the container's generic reader, copying out every
//! dataset (`sciml inspect` lists them with it). A DeepCAM sample is
//! read by [`crate::stream::DeepCamH5Reader`] instead, which parses the
//! same directory and streams the payload without a copy.

use crate::{DataError, Result};
use sciml_compress::crc32::crc32;

const MAGIC: &[u8; 4] = b"H5LT";
const VERSION: u16 = 1;

/// Element type of a dataset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DType {
    /// 32-bit float.
    F32,
    /// 16-bit unsigned integer.
    U16,
    /// 8-bit unsigned integer.
    U8,
}

impl DType {
    fn code(self) -> u8 {
        match self {
            DType::F32 => 0,
            DType::U16 => 1,
            DType::U8 => 2,
        }
    }

    fn from_code(c: u8) -> Result<Self> {
        match c {
            0 => Ok(DType::F32),
            1 => Ok(DType::U16),
            2 => Ok(DType::U8),
            _ => Err(DataError::Format("unknown dtype code")),
        }
    }

    /// Bytes per element.
    pub fn size(self) -> usize {
        match self {
            DType::F32 => 4,
            DType::U16 => 2,
            DType::U8 => 1,
        }
    }
}

/// In-memory dataset description plus raw little-endian payload.
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    /// Dataset name (e.g. `"data"`, `"label"`).
    pub name: String,
    /// Element type.
    pub dtype: DType,
    /// Shape, slowest dimension first.
    pub shape: Vec<u64>,
    /// Raw little-endian element bytes.
    pub payload: Vec<u8>,
}

impl Dataset {
    /// Builds an f32 dataset from values.
    pub fn from_f32(name: &str, shape: &[u64], values: &[f32]) -> Dataset {
        let mut payload = Vec::with_capacity(values.len() * 4);
        for v in values {
            payload.extend_from_slice(&v.to_le_bytes());
        }
        Dataset {
            name: name.to_string(),
            dtype: DType::F32,
            shape: shape.to_vec(),
            payload,
        }
    }

    /// Builds a u16 dataset from values.
    pub fn from_u16(name: &str, shape: &[u64], values: &[u16]) -> Dataset {
        let mut payload = Vec::with_capacity(values.len() * 2);
        for v in values {
            payload.extend_from_slice(&v.to_le_bytes());
        }
        Dataset {
            name: name.to_string(),
            dtype: DType::U16,
            shape: shape.to_vec(),
            payload,
        }
    }

    /// Builds a u8 dataset from values.
    pub fn from_u8(name: &str, shape: &[u64], values: &[u8]) -> Dataset {
        Dataset {
            name: name.to_string(),
            dtype: DType::U8,
            shape: shape.to_vec(),
            payload: values.to_vec(),
        }
    }
}

/// Payload bytes a dataset of `shape` and `dtype` holds, or `None` where
/// that count does not fit a `usize`: a shape read from a file may
/// multiply past 2^64.
fn payload_len(shape: &[u64], dtype: DType) -> Option<usize> {
    let elems = shape.iter().try_fold(1u64, |n, &d| n.checked_mul(d))?;
    usize::try_from(elems).ok()?.checked_mul(dtype.size())
}

/// The next `N` bytes of an `h5lite` header at `*pos`, advancing it.
fn take_array<const N: usize>(body: &[u8], pos: &mut usize) -> Result<[u8; N]> {
    let bytes = body
        .get(*pos..)
        .and_then(|rest| rest.first_chunk::<N>())
        .ok_or(DataError::Format("header overruns file"))?;
    *pos += N;
    Ok(*bytes)
}

/// Serializes datasets into an `h5lite` file image.
pub fn write(datasets: &[Dataset]) -> Result<Vec<u8>> {
    let mut header = Vec::new();
    header.extend_from_slice(MAGIC);
    header.extend_from_slice(&VERSION.to_le_bytes());
    header.extend_from_slice(&(datasets.len() as u16).to_le_bytes());
    let mut offset = 0u64;
    for d in datasets {
        if payload_len(&d.shape, d.dtype) != Some(d.payload.len()) {
            return Err(DataError::Format("payload does not match shape"));
        }
        let name = d.name.as_bytes();
        if name.len() > u16::MAX as usize {
            return Err(DataError::Format("dataset name too long"));
        }
        header.extend_from_slice(&(name.len() as u16).to_le_bytes());
        header.extend_from_slice(name);
        header.push(d.dtype.code());
        header.push(d.shape.len() as u8);
        for &s in &d.shape {
            header.extend_from_slice(&s.to_le_bytes());
        }
        header.extend_from_slice(&offset.to_le_bytes());
        header.extend_from_slice(&(d.payload.len() as u64).to_le_bytes());
        offset += d.payload.len() as u64;
    }
    let mut out = header;
    for d in datasets {
        out.extend_from_slice(&d.payload);
    }
    let crc = crc32(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    Ok(out)
}

/// One dataset's directory entry: its description and where its
/// payload lies in the payload region.
pub(crate) struct Entry {
    pub(crate) name: String,
    pub(crate) dtype: DType,
    pub(crate) shape: Vec<u64>,
    pub(crate) offset: u64,
    pub(crate) len: u64,
}

impl Entry {
    /// Where the payload lies in the payload region; not yet checked
    /// against the region's length.
    pub(crate) fn range(&self) -> Result<std::ops::Range<usize>> {
        let start = self.offset as usize;
        let end = start
            .checked_add(self.len as usize)
            .ok_or(DataError::Format("payload range overflow"))?;
        Ok(start..end)
    }

    /// Whether the payload's length is what the shape and type make it.
    pub(crate) fn check_shape(&self) -> Result<()> {
        match payload_len(&self.shape, self.dtype) {
            None => Err(DataError::Format("shape overflows")),
            Some(n) if n as u64 != self.len => {
                Err(DataError::Format("payload does not match shape"))
            }
            Some(_) => Ok(()),
        }
    }
}

/// What [`directory`] says of a body that ends inside the directory.
pub(crate) const HEADER_OVERRUNS: &str = "header overruns file";

/// Parses the directory at the head of an `h5lite` body (the file
/// without its CRC): the entries and the offset of the payload region.
/// A body that ends inside it is a [`HEADER_OVERRUNS`] format error.
pub(crate) fn directory(body: &[u8]) -> Result<(Vec<Entry>, usize)> {
    let mut pos = 0usize;
    let take = |pos: &mut usize, n: usize| -> Result<&[u8]> {
        if *pos + n > body.len() {
            return Err(DataError::Format(HEADER_OVERRUNS));
        }
        let s = &body[*pos..*pos + n];
        *pos += n;
        Ok(s)
    };
    if &take_array::<4>(body, &mut pos)? != MAGIC {
        return Err(DataError::Format("bad magic"));
    }
    let version = u16::from_le_bytes(take_array(body, &mut pos)?);
    if version != VERSION {
        return Err(DataError::Format("unsupported version"));
    }
    let count = u16::from_le_bytes(take_array(body, &mut pos)?) as usize;
    let mut entries = Vec::with_capacity(count);
    for _ in 0..count {
        let name_len = u16::from_le_bytes(take_array(body, &mut pos)?) as usize;
        let name = String::from_utf8(take(&mut pos, name_len)?.to_vec())
            .map_err(|_| DataError::Format("dataset name not utf-8"))?;
        let [dtype, ndim] = take_array(body, &mut pos)?;
        let dtype = DType::from_code(dtype)?;
        let mut shape = Vec::with_capacity(ndim as usize);
        for _ in 0..ndim {
            shape.push(u64::from_le_bytes(take_array(body, &mut pos)?));
        }
        let offset = u64::from_le_bytes(take_array(body, &mut pos)?);
        let len = u64::from_le_bytes(take_array(body, &mut pos)?);
        entries.push(Entry {
            name,
            dtype,
            shape,
            offset,
            len,
        });
    }
    Ok((entries, pos))
}

/// Parses an `h5lite` file image.
pub fn read(data: &[u8]) -> Result<Vec<Dataset>> {
    let Some((body, crc_bytes)) = data.split_last_chunk::<4>().filter(|_| data.len() >= 12) else {
        return Err(DataError::Format("file too short"));
    };
    if crc32(body) != u32::from_le_bytes(*crc_bytes) {
        return Err(DataError::Checksum);
    }
    let (entries, pos) = directory(body)?;
    let payload_region = &body[pos..];
    entries
        .into_iter()
        .map(|e| {
            let range = e.range()?;
            if range.end > payload_region.len() {
                return Err(DataError::Format("payload out of range"));
            }
            e.check_shape()?;
            Ok(Dataset {
                name: e.name,
                dtype: e.dtype,
                shape: e.shape,
                payload: payload_region[range].to_vec(),
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_datasets() -> [Dataset; 2] {
        let data = Dataset::from_f32("data", &[2, 3], &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let label = Dataset::from_u8("label", &[6], &[0, 1, 2, 0, 1, 2]);
        [data, label]
    }

    fn sample_file() -> Vec<u8> {
        write(&sample_datasets()).unwrap()
    }

    #[test]
    fn roundtrip() {
        let ds = read(&sample_file()).unwrap();
        assert_eq!(ds, sample_datasets());
        assert_eq!(ds[0].payload[4..8], 2.0f32.to_le_bytes());
    }

    #[test]
    fn u16_roundtrip() {
        let d = Dataset::from_u16("counts", &[4], &[0, 1, 65535, 42]);
        let ds = read(&write(std::slice::from_ref(&d)).unwrap()).unwrap();
        assert_eq!(ds, vec![d]);
    }

    /// A CRC-valid file whose `data` is f32 `[1, 2^63, 2]` and whose
    /// `label` is u8 `[2^63, 2]`, both with empty payloads. Each shape
    /// counts 2^64 elements, which a `u64` product wraps to 0 — an empty
    /// payload's length.
    const SHAPE_OVERFLOW: &[u8] = &[
        b'H', b'5', b'L', b'T', 1, 0, 2, 0, // magic, version 1, 2 datasets
        4, 0, b'd', b'a', b't', b'a', 0, 3, // "data", f32, rank 3
        1, 0, 0, 0, 0, 0, 0, 0, // 1
        0, 0, 0, 0, 0, 0, 0, 0x80, // 2^63
        2, 0, 0, 0, 0, 0, 0, 0, // 2
        0, 0, 0, 0, 0, 0, 0, 0, // payload offset
        0, 0, 0, 0, 0, 0, 0, 0, // payload length
        5, 0, b'l', b'a', b'b', b'e', b'l', 2, 2, // "label", u8, rank 2
        0, 0, 0, 0, 0, 0, 0, 0x80, // 2^63
        2, 0, 0, 0, 0, 0, 0, 0, // 2
        0, 0, 0, 0, 0, 0, 0, 0, // payload offset
        0, 0, 0, 0, 0, 0, 0, 0, // payload length
        0x64, 0xc2, 0xa3, 0x25, // CRC-32 of all of the above
    ];

    #[test]
    fn a_shape_that_overflows_is_a_format_error() {
        assert!(matches!(
            read(SHAPE_OVERFLOW),
            Err(DataError::Format("shape overflows"))
        ));
    }

    #[test]
    fn shape_payload_mismatch_rejected_on_write() {
        let bad = Dataset {
            name: "x".into(),
            dtype: DType::F32,
            shape: vec![10],
            payload: vec![0; 8],
        };
        assert!(write(&[bad]).is_err());
    }

    #[test]
    fn corruption_is_detected() {
        let mut bytes = sample_file();
        bytes[20] ^= 0xAA;
        assert!(matches!(read(&bytes), Err(DataError::Checksum)));
    }

    #[test]
    fn truncation_is_detected() {
        let bytes = sample_file();
        assert!(read(&bytes[..bytes.len() - 9]).is_err());
    }

    #[test]
    fn empty_file_list_roundtrips() {
        let bytes = write(&[]).unwrap();
        assert!(read(&bytes).unwrap().is_empty());
    }
}
