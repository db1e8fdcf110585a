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

#[cfg(test)]
#[path = "tests/decode_differential.rs"]
mod decode_differential;
#[cfg(test)]
#[path = "tests/encode_differential.rs"]
mod encode_differential;
#[cfg(test)]
#[path = "tests/reference_decode.rs"]
pub(crate) mod reference_decode;
#[cfg(test)]
#[path = "tests/reference_encode.rs"]
pub(crate) mod reference_encode;

pub use decode::{decode, decode_counts, decode_into, decode_view_into, decode_with_counter};
pub use encode::{
    baseline_preprocess, baseline_preprocess_into, baseline_preprocess_with_counter, encode,
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

    /// Key number `i` of `keys` (panics past their end).
    #[inline]
    fn read(self, keys: &[u8], i: usize) -> usize {
        match self {
            KeyWidth::U8 => keys[i] as usize,
            KeyWidth::U16 => u16::from_le_bytes([keys[2 * i], keys[2 * i + 1]]) as usize,
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

    /// Groups a table may hold: the key space.
    fn max_groups(self) -> usize {
        match self {
            KeyWidth::U8 => 256,
            KeyWidth::U16 => 65536,
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
        self.key_width.read(&self.keys, i)
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
    /// Voxels per channel (saturating, like [`CosmoView::voxels`]).
    pub fn voxels(&self) -> usize {
        voxels_of(self.grid)
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

    /// Parses the wire format into an owned sample: [`CosmoView::parse`]'s
    /// checks, then every chunk's key range, then the copies. A blob
    /// that is only decoded can stay borrowed.
    pub fn from_bytes(data: &[u8]) -> Result<Self, CodecError> {
        let view = CosmoView::parse(data)?;
        // Grown as chunks are read, never reserved from the header's
        // count.
        let mut chunks = Vec::new();
        for chunk in view.chunks() {
            let chunk = chunk?;
            chunk.check_keys()?;
            let mut table = Vec::with_capacity(chunk.table.len());
            chunk.table.for_each(|g| table.push(g));
            chunks.push(CosmoChunk {
                n_voxels: chunk.n_voxels,
                key_width: chunk.key_width,
                table,
                keys: chunk.keys.to_vec(),
            });
        }
        Ok(EncodedCosmo {
            grid: view.grid,
            label: view.label,
            chunks,
        })
    }

    /// The sample as the decoder reads it, borrowed.
    pub fn view(&self) -> CosmoView<'_> {
        CosmoView {
            grid: self.grid,
            label: self.label,
            chunks: Chunks::Owned(&self.chunks),
        }
    }
}

/// Wire bytes of one table group.
const GROUP_BYTES: usize = 2 * N_REDSHIFTS;

/// `grid³`, saturating where it overflows `usize`: a count no chunk
/// list or buffer can match.
fn voxels_of(grid: u32) -> usize {
    (grid as usize).saturating_pow(3)
}

/// Reads the chunk at `*pos` where it lies: fixed fields, table, keys.
/// The keys are sized, not read: [`ChunkView::check_keys`].
fn wire_chunk<'a>(data: &'a [u8], pos: &mut usize) -> Result<ChunkView<'a>, CodecError> {
    let take = |pos: &mut usize, n: usize| crate::wire::take(data, pos, n);
    let n_voxels = crate::wire::le_u32(take(pos, 4)?);
    let key_width = KeyWidth::from_code(take(pos, 1)?[0])?;
    let n_groups = crate::wire::le_u32(take(pos, 4)?) as usize;
    if n_groups == 0 || n_groups > key_width.max_groups() {
        return Err(CodecError::Corrupt("group count vs key width"));
    }
    let table = take(pos, n_groups * GROUP_BYTES)?;
    let key_bytes = (n_voxels as usize)
        .checked_mul(key_width.bytes())
        .ok_or(CodecError::Truncated)?;
    let keys = take(pos, key_bytes)?;
    Ok(ChunkView {
        n_voxels,
        key_width,
        table: Table::Wire(table),
        keys,
    })
}

/// A chunk's lookup table: the wire's eight bytes a group, or a
/// [`CosmoChunk`]'s parsed groups.
#[derive(Debug, Clone, Copy)]
enum Table<'a> {
    /// Wire form, a whole number of groups ([`wire_chunk`] sized it).
    Wire(&'a [u8]),
    Groups(&'a [[u16; N_REDSHIFTS]]),
}

impl Table<'_> {
    /// Groups in the table.
    fn len(self) -> usize {
        match self {
            Table::Wire(bytes) => bytes.len() / GROUP_BYTES,
            Table::Groups(groups) => groups.len(),
        }
    }

    /// Calls `f` with every group in key order.
    fn for_each(self, mut f: impl FnMut([u16; N_REDSHIFTS])) {
        match self {
            Table::Wire(bytes) => {
                for g in bytes.chunks_exact(GROUP_BYTES) {
                    f(std::array::from_fn(|z| crate::wire::le_u16(&g[2 * z..])));
                }
            }
            Table::Groups(groups) => groups.iter().for_each(|&g| f(g)),
        }
    }
}

/// One chunk as a decoder reads it ([`CosmoView::chunks`]): the table
/// and the keys lent from the wire blob or the [`CosmoChunk`] that
/// holds them.
#[derive(Debug, Clone, Copy)]
pub struct ChunkView<'a> {
    /// Voxels covered by this chunk (flat, contiguous range).
    pub n_voxels: u32,
    /// Width of one key.
    pub key_width: KeyWidth,
    table: Table<'a>,
    /// Keys, little-endian, lent unread. A parsed view's are
    /// `n_voxels * key_width.bytes()` long; an owned sample's are
    /// whatever its public field holds.
    pub keys: &'a [u8],
}

impl ChunkView<'_> {
    /// Groups in the chunk's table.
    pub fn table_len(&self) -> usize {
        self.table.len()
    }

    /// Calls `f` with every table group in key order.
    pub fn for_each_group(&self, f: impl FnMut([u16; N_REDSHIFTS])) {
        self.table.for_each(f)
    }

    /// Reads key number `i` (panics past the end of `keys`, like
    /// [`CosmoChunk::key`]).
    #[inline]
    pub fn key(&self, i: usize) -> usize {
        self.key_width.read(self.keys, i)
    }

    /// The one key-range check, and the contract the gather's unchecked
    /// indexing relies on: the keys are one a voxel and the largest of
    /// them indexes inside the table. A vectorizable max-scan, so the
    /// gather needs no per-voxel fallible branch.
    fn check_keys(&self) -> Result<(), CodecError> {
        let n = self.n_voxels as usize;
        if n.checked_mul(self.key_width.bytes()) != Some(self.keys.len()) {
            return Err(CodecError::Corrupt("key payload size"));
        }
        // Folded in the key's own width: the shape the compiler turns
        // into a vector max.
        let max_key = match self.key_width {
            KeyWidth::U8 => self.keys.iter().copied().fold(0, u8::max) as usize,
            KeyWidth::U16 => self
                .keys
                .chunks_exact(2)
                .map(|b| u16::from_le_bytes([b[0], b[1]]))
                .fold(0, u16::max) as usize,
        };
        if n > 0 && max_key >= self.table.len() {
            return Err(CodecError::Corrupt("key out of table range"));
        }
        Ok(())
    }
}

/// A view's chunk list: the wire's chunks back to back, or an
/// [`EncodedCosmo`]'s parsed ones.
#[derive(Debug, Clone, Copy)]
enum Chunks<'a> {
    /// Wire form: `n` chunks, each read through by [`CosmoView::parse`].
    Wire {
        n: usize,
        bytes: &'a [u8],
    },
    Owned(&'a [CosmoChunk]),
}

/// An encoded CosmoFlow sample borrowed from the bytes that hold it:
/// what the decoder reads, whether those are a wire blob as it arrived
/// ([`CosmoView::parse`]) or an [`EncodedCosmo`]
/// ([`EncodedCosmo::view`]). Nothing is copied and nothing allocated.
#[derive(Debug, Clone, Copy)]
pub struct CosmoView<'a> {
    /// Grid edge length.
    pub grid: u32,
    /// Regression label (Ωm, σ8, n_s, h) — carried losslessly.
    pub label: [f32; 4],
    chunks: Chunks<'a>,
}

impl<'a> CosmoView<'a> {
    /// Parses a wire blob in place: every structural check — magic,
    /// version, grid limits, each chunk's fixed fields and room for its
    /// table and keys, trailing bytes, coverage — and nothing sized
    /// from a header field. The keys are lent unread; their range is
    /// [`decode_view_into`]'s to check (and `from_bytes`'s, for owned
    /// callers).
    pub fn parse(data: &'a [u8]) -> Result<Self, CodecError> {
        let mut pos = 0usize;
        let take = |pos: &mut usize, n: usize| crate::wire::take(data, pos, n);
        if take(&mut pos, 4)? != MAGIC {
            return Err(CodecError::Corrupt("bad magic"));
        }
        if crate::wire::le_u32(take(&mut pos, 4)?) != VERSION {
            return Err(CodecError::Corrupt("unsupported version"));
        }
        let grid = crate::wire::le_u32(take(&mut pos, 4)?);
        if grid > 4096 {
            return Err(CodecError::Corrupt("implausible grid"));
        }
        // Whatever the chunk count: the decoder cuts its output into
        // channel planes of `grid³`.
        if grid == 0 {
            return Err(CodecError::Corrupt("zero grid"));
        }
        let mut label = [0f32; 4];
        for l in &mut label {
            *l = crate::wire::le_f32(take(&mut pos, 4)?);
        }
        let n = crate::wire::le_u32(take(&mut pos, 4)?) as usize;
        let bytes = data.get(pos..).ok_or(CodecError::Truncated)?;
        // A chunk is at least seventeen bytes, so a count the blob
        // cannot hold ends this loop at the blob's end.
        let mut covered = 0u64;
        for _ in 0..n {
            covered += wire_chunk(data, &mut pos)?.n_voxels as u64;
        }
        if pos != data.len() {
            return Err(CodecError::Inconsistent("trailing bytes"));
        }
        if covered != voxels_of(grid) as u64 {
            return Err(CodecError::Inconsistent("chunks do not cover grid"));
        }
        Ok(Self {
            grid,
            label,
            chunks: Chunks::Wire { n, bytes },
        })
    }

    /// Voxels per channel (saturating: see [`CosmoView::n_values`]).
    pub fn voxels(&self) -> usize {
        voxels_of(self.grid)
    }

    /// Total values the decoded sample holds. Saturates where a
    /// hand-built grid overflows `usize`: a count no buffer can match.
    pub fn n_values(&self) -> usize {
        self.voxels().saturating_mul(N_REDSHIFTS)
    }

    /// The chunks in voxel order. A parsed view's were read through
    /// once already, so its items are `Ok`.
    pub fn chunks(&self) -> impl Iterator<Item = Result<ChunkView<'a>, CodecError>> {
        ChunkIter {
            chunks: self.chunks,
            pos: 0,
        }
    }
}

/// [`CosmoView::chunks`]: what is left of the list, and how far into
/// the wire bytes the next chunk lies.
struct ChunkIter<'a> {
    chunks: Chunks<'a>,
    pos: usize,
}

impl<'a> Iterator for ChunkIter<'a> {
    type Item = Result<ChunkView<'a>, CodecError>;

    fn next(&mut self) -> Option<Self::Item> {
        match &mut self.chunks {
            Chunks::Wire { n, bytes } => {
                *n = n.checked_sub(1)?;
                Some(wire_chunk(bytes, &mut self.pos))
            }
            Chunks::Owned(owned) => {
                let (chunk, rest) = owned.split_first()?;
                *owned = rest;
                Some(Ok(ChunkView {
                    n_voxels: chunk.n_voxels,
                    key_width: chunk.key_width,
                    table: Table::Groups(&chunk.table),
                    keys: &chunk.keys,
                }))
            }
        }
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
