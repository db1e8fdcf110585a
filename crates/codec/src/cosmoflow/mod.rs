//! CosmoFlow lookup-table codec (paper §V-B, Fig. 5).
//!
//! A sample's four redshift channels are coupled: the 4-tuple of counts
//! at a voxel takes only tens of thousands of distinct values ("36944
//! unique groups … out of a potential 1.2×10¹¹ possibilities"). Each
//! voxel therefore stores a 1- or 2-byte **key** into a per-sample table
//! of 8-byte groups (4 × u16 counts).
//!
//! Two further paper mechanisms are implemented exactly:
//!
//! * **Operator fusion / reordering** — `log(1+count)` is applied to the
//!   table's unique entries once, *before* expansion, so a 128³ sample
//!   needs thousands of `log` evaluations instead of 8.4 million
//!   ("applying the log operator before decompression is advantageous").
//! * **Multiple lookup tables** — voxels are chunked so each chunk's
//!   table fits the 16-bit key space ("for larger than 128³
//!   decompositions, multiple lookup tables are required"). Chunks also
//!   give the GPU independent decode tasks.
//!
//! The encoding is lossless on counts; the decoder emits FP16 after the
//! fused op (exact for `log1p` of u16 counts at FP16's 11-bit mantissa
//! relative precision, which is why the paper calls this path non-lossy).

mod decode;
mod encode;
mod gather;

pub use decode::{
    decode, decode_counts, decode_into, decode_parallel, decode_parallel_into, decode_with_counter,
};
pub use encode::{
    baseline_preprocess, baseline_preprocess_into, baseline_preprocess_with,
    baseline_preprocess_with_counter, encode,
};

use crate::CodecError;
use sciml_data::cosmoflow::N_REDSHIFTS;

/// Key width of a chunk's voxel indices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KeyWidth {
    /// 1-byte keys (≤ 256 groups).
    U8,
    /// 2-byte keys (≤ 65536 groups).
    U16,
}

impl KeyWidth {
    /// Bytes per key.
    pub fn bytes(self) -> usize {
        match self {
            KeyWidth::U8 => 1,
            KeyWidth::U16 => 2,
        }
    }

    fn code(self) -> u8 {
        match self {
            KeyWidth::U8 => 1,
            KeyWidth::U16 => 2,
        }
    }

    fn from_code(c: u8) -> Result<Self, CodecError> {
        match c {
            1 => Ok(KeyWidth::U8),
            2 => Ok(KeyWidth::U16),
            _ => Err(CodecError::Corrupt("bad key width")),
        }
    }
}

/// One chunk: a localized lookup table plus the keys of its voxel range.
#[derive(Debug, Clone, PartialEq)]
pub struct CosmoChunk {
    /// Voxels covered by this chunk (flat, contiguous range).
    pub n_voxels: u32,
    /// Key width chosen from the table size.
    pub key_width: KeyWidth,
    /// Unique groups, lexicographically sorted for determinism.
    pub table: Vec<[u16; N_REDSHIFTS]>,
    /// Keys, `n_voxels * key_width.bytes()` little-endian bytes.
    pub keys: Vec<u8>,
}

impl CosmoChunk {
    /// Reads key number `i`.
    #[inline]
    pub fn key(&self, i: usize) -> usize {
        match self.key_width {
            KeyWidth::U8 => self.keys[i] as usize,
            KeyWidth::U16 => u16::from_le_bytes([self.keys[2 * i], self.keys[2 * i + 1]]) as usize,
        }
    }

    /// Encoded size of the chunk in bytes (header + table + keys).
    pub fn encoded_bytes(&self) -> usize {
        9 + self.table.len() * 2 * N_REDSHIFTS + self.keys.len()
    }
}

/// An encoded CosmoFlow sample.
#[derive(Debug, Clone, PartialEq)]
pub struct EncodedCosmo {
    /// Grid edge length.
    pub grid: u32,
    /// Regression label (Ωm, σ8, n_s, h) — carried losslessly.
    pub label: [f32; 4],
    /// Chunks covering the flat voxel range in order.
    pub chunks: Vec<CosmoChunk>,
}

const MAGIC: &[u8; 4] = b"CFLX";
const VERSION: u32 = 1;

impl EncodedCosmo {
    /// Voxels per channel.
    pub fn voxels(&self) -> usize {
        (self.grid as usize).pow(3)
    }

    /// Total unique groups across chunks.
    pub fn total_groups(&self) -> usize {
        self.chunks.iter().map(|c| c.table.len()).sum()
    }

    /// Encoded size in bytes — the unit that travels the memory
    /// hierarchy.
    pub fn encoded_bytes(&self) -> usize {
        20 + self
            .chunks
            .iter()
            .map(CosmoChunk::encoded_bytes)
            .sum::<usize>()
    }

    /// Raw FP32 baseline size (counts widened to f32, 4 channels).
    pub fn raw_bytes(&self) -> usize {
        self.voxels() * N_REDSHIFTS * 4
    }

    /// Compression ratio vs the f32 baseline.
    pub fn compression_ratio(&self) -> f64 {
        self.raw_bytes() as f64 / self.encoded_bytes() as f64
    }

    /// Serializes to the wire format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.encoded_bytes() + 16);
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        out.extend_from_slice(&self.grid.to_le_bytes());
        for l in self.label {
            out.extend_from_slice(&l.to_le_bytes());
        }
        out.extend_from_slice(&(self.chunks.len() as u32).to_le_bytes());
        for c in &self.chunks {
            out.extend_from_slice(&c.n_voxels.to_le_bytes());
            out.push(c.key_width.code());
            out.extend_from_slice(&(c.table.len() as u32).to_le_bytes());
            for g in &c.table {
                for &v in g {
                    out.extend_from_slice(&v.to_le_bytes());
                }
            }
            out.extend_from_slice(&c.keys);
        }
        out
    }

    /// Parses the wire format, validating chunk coverage and key ranges.
    pub fn from_bytes(data: &[u8]) -> Result<Self, CodecError> {
        let mut pos = 0usize;
        let take = |pos: &mut usize, n: usize| crate::wire::take(data, pos, n);
        if take(&mut pos, 4)? != MAGIC {
            return Err(CodecError::Corrupt("bad magic"));
        }
        if crate::wire::le_u32(take(&mut pos, 4)?) != VERSION {
            return Err(CodecError::Corrupt("unsupported version"));
        }
        let grid = crate::wire::le_u32(take(&mut pos, 4)?);
        if grid as u64 > 4096 {
            return Err(CodecError::Corrupt("implausible grid"));
        }
        let mut label = [0f32; 4];
        for l in &mut label {
            *l = crate::wire::le_f32(take(&mut pos, 4)?);
        }
        let n_chunks = crate::wire::le_u32(take(&mut pos, 4)?) as usize;
        let mut chunks = Vec::with_capacity(n_chunks.min(1 << 20));
        let mut covered = 0u64;
        for _ in 0..n_chunks {
            let n_voxels = crate::wire::le_u32(take(&mut pos, 4)?);
            let key_width = KeyWidth::from_code(take(&mut pos, 1)?[0])?;
            let n_groups = crate::wire::le_u32(take(&mut pos, 4)?) as usize;
            let max_groups = match key_width {
                KeyWidth::U8 => 256,
                KeyWidth::U16 => 65536,
            };
            if n_groups == 0 || n_groups > max_groups {
                return Err(CodecError::Corrupt("group count vs key width"));
            }
            let table_bytes = take(&mut pos, n_groups * 2 * N_REDSHIFTS)?;
            let table: Vec<[u16; N_REDSHIFTS]> = table_bytes
                .chunks_exact(2 * N_REDSHIFTS)
                .map(|g| {
                    let mut arr = [0u16; N_REDSHIFTS];
                    for (i, a) in arr.iter_mut().enumerate() {
                        *a = u16::from_le_bytes([g[2 * i], g[2 * i + 1]]);
                    }
                    arr
                })
                .collect();
            let key_bytes = (n_voxels as usize)
                .checked_mul(key_width.bytes())
                .ok_or(CodecError::Truncated)?;
            let keys = take(&mut pos, key_bytes)?.to_vec();
            let chunk = CosmoChunk {
                n_voxels,
                key_width,
                table,
                keys,
            };
            for i in 0..n_voxels as usize {
                if chunk.key(i) >= chunk.table.len() {
                    return Err(CodecError::Corrupt("key out of table range"));
                }
            }
            covered += n_voxels as u64;
            chunks.push(chunk);
        }
        if pos != data.len() {
            return Err(CodecError::Inconsistent("trailing bytes"));
        }
        let enc = EncodedCosmo {
            grid,
            label,
            chunks,
        };
        if covered != enc.voxels() as u64 {
            return Err(CodecError::Inconsistent("chunks do not cover grid"));
        }
        Ok(enc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sciml_data::cosmoflow::{CosmoFlowConfig, UniverseGenerator};

    #[test]
    fn key_width_properties() {
        assert_eq!(KeyWidth::U8.bytes(), 1);
        assert_eq!(KeyWidth::U16.bytes(), 2);
        assert!(KeyWidth::from_code(3).is_err());
    }

    #[test]
    fn wire_roundtrip() {
        let s = UniverseGenerator::new(CosmoFlowConfig::test_small()).generate(0);
        let e = encode(&s);
        let e2 = EncodedCosmo::from_bytes(&e.to_bytes()).unwrap();
        assert_eq!(e, e2);
    }

    #[test]
    fn wire_rejects_all_truncations() {
        let s = UniverseGenerator::new(CosmoFlowConfig::test_small()).generate(1);
        let bytes = encode(&s).to_bytes();
        for cut in (0..bytes.len()).step_by(101) {
            assert!(
                EncodedCosmo::from_bytes(&bytes[..cut]).is_err(),
                "cut {cut}"
            );
        }
    }

    #[test]
    fn wire_rejects_trailing_garbage() {
        let s = UniverseGenerator::new(CosmoFlowConfig::test_small()).generate(1);
        let mut bytes = encode(&s).to_bytes();
        bytes.push(0);
        assert!(matches!(
            EncodedCosmo::from_bytes(&bytes),
            Err(CodecError::Inconsistent(_))
        ));
    }

    #[test]
    fn chunk_key_reading() {
        let c = CosmoChunk {
            n_voxels: 3,
            key_width: KeyWidth::U16,
            table: vec![[0; 4]; 300],
            keys: vec![0x01, 0x00, 0x2A, 0x01, 0xFF, 0x00],
        };
        assert_eq!(c.key(0), 1);
        assert_eq!(c.key(1), 0x012A);
        assert_eq!(c.key(2), 255);
    }
}
