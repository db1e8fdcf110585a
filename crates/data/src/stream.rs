//! The one reader of each baseline layout, push-fed: a sample's bytes
//! arrive a run at a time — as a gzip baseline inflates them through a
//! window — or all at once, as an uncompressed baseline has them, and
//! are read once, front to back.
//!
//! [`CosmoPayloadReader`] reads a `CFSM` payload (the CosmoFlow
//! baselines) and [`DeepCamH5Reader`] an `h5lite` DeepCAM file (the
//! DeepCAM ones). Each hands the sample's values to a [`ValueSink`] in
//! runs of at most [`RUN`] as they arrive, and keeps no more of the
//! stream than a value split over two runs, the `h5lite` directory and
//! the label. Every split of the same bytes into pushes reads the same:
//! the same values, or an error, though a damaged stream's error may
//! depend on the split, since a reader says what it finds first. The
//! owned samples of [`serialize::cosmo_from_payload`] and
//! [`serialize::deepcam_from_h5`] are these readers' values, collected.
//!
//! [`serialize::cosmo_from_payload`]: crate::serialize::cosmo_from_payload
//! [`serialize::deepcam_from_h5`]: crate::serialize::deepcam_from_h5

use crate::cosmoflow::CosmoParams;
use crate::h5lite::{self, HEADER_OVERRUNS};
use crate::serialize::{canonical_count, cosmo_head, deepcam_dims, COSMO_HEAD};
use crate::{DataError, Result};
use sciml_compress::crc32::Crc32;
use std::ops::Range;

/// Values in one run: 16 KiB of f32, the operators' own chunk, so a run
/// is still in L1 when the operator reads it.
pub const RUN: usize = 4096;

/// What a sink says of a header that declares more values than its
/// input can hold: no sink sizes anything from such a header.
pub const MORE_VALUES_THAN_INPUT: &str = "header declares more values than the input holds";

/// Where a reader's values go: [`begin`](ValueSink::begin) once the
/// header says how many there are, then [`fill`](ValueSink::fill) with
/// each run of them, in order.
pub trait ValueSink {
    /// What the sink fails with; a reader's format errors are among it.
    type Error: From<DataError>;

    /// The header is in, and `n_values` values follow.
    fn begin(&mut self, n_values: usize) -> std::result::Result<(), Self::Error>;

    /// Values `start..start + vals.len()`, checked. `vals` is scratch.
    fn fill(&mut self, start: usize, vals: &mut [f32]) -> std::result::Result<(), Self::Error>;
}

/// Little-endian f32 values arriving a byte run at a time, widened into
/// runs: a value split between two byte runs waits in `carry`.
struct F32Runs {
    carry: [u8; 4],
    carried: usize,
    /// Values handed on so far.
    next: usize,
    vals: [f32; RUN],
}

impl F32Runs {
    fn new() -> Self {
        F32Runs {
            carry: [0; 4],
            carried: 0,
            next: 0,
            vals: [0.0; RUN],
        }
    }

    /// Widens `bytes` through `read_value` — a value and whether it is
    /// good — and hands each run to `deliver` with its first index and
    /// whether all its values were good.
    #[inline]
    fn push<E>(
        &mut self,
        mut bytes: &[u8],
        read_value: impl Fn(f32) -> (f32, bool),
        mut deliver: impl FnMut(usize, &mut [f32], bool) -> std::result::Result<(), E>,
    ) -> std::result::Result<(), E> {
        let mut k = 0;
        let mut good = true;
        if self.carried > 0 {
            let take = (4 - self.carried).min(bytes.len());
            self.carry[self.carried..self.carried + take].copy_from_slice(&bytes[..take]);
            self.carried += take;
            bytes = &bytes[take..];
            if self.carried < 4 {
                return Ok(());
            }
            self.carried = 0;
            let (v, ok) = read_value(f32::from_le_bytes(self.carry));
            self.vals[0] = v;
            good = ok;
            k = 1;
        }
        while k > 0 || bytes.len() >= 4 {
            let n = (RUN - k).min(bytes.len() / 4);
            let (words, rest) = bytes.split_at(4 * n);
            // One flag for the run instead of a branch per value, so the
            // loop vectorises.
            for (v, w) in self.vals[k..k + n].iter_mut().zip(words.chunks_exact(4)) {
                let (x, ok) = read_value(f32::from_le_bytes([w[0], w[1], w[2], w[3]]));
                *v = x;
                good &= ok;
            }
            bytes = rest;
            k += n;
            deliver(self.next, &mut self.vals[..k], good)?;
            self.next += k;
            (k, good) = (0, true);
        }
        self.carry[..bytes.len()].copy_from_slice(bytes);
        self.carried = bytes.len();
        Ok(())
    }
}

/// A `CFSM` payload read as it streams in: the 24-byte header, then the
/// counts, each checked to be a u16 integer as it is widened (`−0.0`
/// reads as the count 0; fractions, negatives, 65 536 and up, ±∞ and
/// NaN are errors). A reader is a few bytes and one run of scratch;
/// keep it on the stack.
pub struct CosmoPayloadReader {
    head: [u8; COSMO_HEAD],
    /// Bytes taken so far, header included.
    taken: usize,
    /// The grid, the label and the body's length in bytes, once the
    /// header is in.
    parsed: Option<(usize, CosmoParams, usize)>,
    values: F32Runs,
}

impl Default for CosmoPayloadReader {
    fn default() -> Self {
        Self::new()
    }
}

impl CosmoPayloadReader {
    /// A reader at the start of a payload.
    pub fn new() -> Self {
        CosmoPayloadReader {
            head: [0; COSMO_HEAD],
            taken: 0,
            parsed: None,
            values: F32Runs::new(),
        }
    }

    /// Takes the payload's next bytes: completes the header and calls
    /// `sink.begin`, then hands the counts on. A body longer than the
    /// grid's, or a value that is not a count, is an error here.
    pub fn push<S: ValueSink>(
        &mut self,
        mut bytes: &[u8],
        sink: &mut S,
    ) -> std::result::Result<(), S::Error> {
        if self.taken < COSMO_HEAD {
            let take = (COSMO_HEAD - self.taken).min(bytes.len());
            self.head[self.taken..self.taken + take].copy_from_slice(&bytes[..take]);
            self.taken += take;
            bytes = &bytes[take..];
            if self.taken < COSMO_HEAD {
                return Ok(());
            }
            let (grid, label, n_values) = cosmo_head(&self.head)?;
            self.parsed = Some((grid, label, 4 * n_values));
            sink.begin(n_values)?;
        }
        let Some((_, _, body_len)) = self.parsed else {
            return Ok(());
        };
        self.taken += bytes.len();
        if self.taken - COSMO_HEAD > body_len {
            return Err(DataError::Format("cosmoflow payload length mismatch").into());
        }
        self.values
            .push(bytes, canonical_count, |start, vals, all_counts| {
                if !all_counts {
                    return Err(DataError::Format("count not a u16 integer").into());
                }
                sink.fill(start, vals)
            })
    }

    /// Ends the payload: the grid and the label, if the header and every
    /// value came.
    pub fn finish(self) -> Result<(usize, CosmoParams)> {
        match self.parsed {
            None => Err(DataError::Format("bad cosmoflow payload header")),
            Some((grid, label, body_len)) if self.taken - COSMO_HEAD == body_len => {
                Ok((grid, label))
            }
            Some(_) => Err(DataError::Format("cosmoflow payload length mismatch")),
        }
    }
}

/// The most directory a [`DeepCamH5Reader`] keeps while it waits for the
/// rest of it: a DeepCAM file's is about 100 bytes.
const MAX_DIRECTORY: usize = 64 << 10;

/// What a [`DeepCamH5Reader`] knows once the directory is in.
struct Layout {
    /// Where the payload region starts in the file.
    region: usize,
    data: Range<usize>,
    label: Range<usize>,
    /// The furthest any dataset's payload reaches into the region.
    reach: usize,
    /// The sample's `(C, H, W)`.
    dims: (usize, usize, usize),
}

/// An `h5lite` DeepCAM file read as it streams in: the directory from
/// the head of the stream, every entry's range and shape checked and
/// `data` / `label` held to a DeepCAM sample's types and shapes; the
/// `data` values handed on as they arrive; the `label` collected; and
/// the CRC of the whole checked at the end. The file's last four bytes
/// are its CRC, so the reader holds back the last four it has been
/// given until more come.
pub struct DeepCamH5Reader {
    held: [u8; 4],
    n_held: usize,
    crc: Crc32,
    /// File bytes before the held ones.
    taken: usize,
    /// The directory while it is incomplete.
    head: Vec<u8>,
    layout: Option<Layout>,
    /// The most the label may reserve up front.
    limit: usize,
    mask: Vec<u8>,
    values: F32Runs,
}

impl DeepCamH5Reader {
    /// A reader at the start of a file of at most `limit` bytes (the
    /// most the label reserves before its bytes come): the input's
    /// length where the whole file is in hand, the inflate limit where
    /// it is inflated.
    pub fn new(limit: usize) -> Self {
        DeepCamH5Reader {
            held: [0; 4],
            n_held: 0,
            crc: Crc32::new(),
            taken: 0,
            head: Vec::new(),
            layout: None,
            limit,
            mask: Vec::new(),
            values: F32Runs::new(),
        }
    }

    /// Takes the file's next bytes.
    pub fn push<S: ValueSink>(
        &mut self,
        bytes: &[u8],
        sink: &mut S,
    ) -> std::result::Result<(), S::Error> {
        let total = self.n_held + bytes.len();
        if total <= 4 {
            self.held[self.n_held..total].copy_from_slice(bytes);
            self.n_held = total;
            return Ok(());
        }
        // All but the last four bytes are body.
        let release = total - 4;
        let held = self.held;
        let from_held = release.min(self.n_held);
        self.body(&held[..from_held], sink)?;
        let from_bytes = release - from_held;
        self.body(&bytes[..from_bytes], sink)?;
        let kept = self.n_held - from_held;
        self.held.copy_within(from_held..self.n_held, 0);
        self.held[kept..4].copy_from_slice(&bytes[from_bytes..]);
        self.n_held = 4;
        Ok(())
    }

    fn body<S: ValueSink>(
        &mut self,
        bytes: &[u8],
        sink: &mut S,
    ) -> std::result::Result<(), S::Error> {
        if bytes.is_empty() {
            return Ok(());
        }
        self.crc.update(bytes);
        let at = self.taken;
        self.taken += bytes.len();
        if self.layout.is_some() {
            return self.payload(at, bytes, sink);
        }
        // The directory starts the file: parse it from `bytes` if it is
        // all there, else from what has been kept of it.
        if !self.head.is_empty() {
            self.head.extend_from_slice(bytes);
        }
        let kept = std::mem::take(&mut self.head);
        let head = if kept.is_empty() { bytes } else { &kept };
        // lint:allow(no_alloc_hot_loop): the directory's entries, a few small allocations a file
        let (entries, region) = match h5lite::directory(head) {
            Ok(found) => found,
            Err(DataError::Format(HEADER_OVERRUNS)) if head.len() <= MAX_DIRECTORY => {
                self.head = kept;
                if self.head.is_empty() {
                    self.head.extend_from_slice(bytes);
                }
                return Ok(());
            }
            Err(DataError::Format(HEADER_OVERRUNS)) => {
                return Err(DataError::Format("h5lite directory too long to stream").into())
            }
            Err(e) => return Err(e.into()),
        };
        let mut reach = 0;
        for e in &entries {
            reach = reach.max(e.range()?.end);
            e.check_shape()?;
        }
        let find = |name: &str| {
            entries
                .iter()
                .find(|e| e.name == name)
                .ok_or(DataError::Format("dataset not found"))
        };
        let (data, label) = (find("data")?, find("label")?);
        let dims = deepcam_dims(
            (data.dtype, &data.shape, data.len as usize),
            (label.dtype, &label.shape, label.len as usize),
        )?;
        let layout = Layout {
            region,
            data: data.range()?,
            label: label.range()?,
            reach,
            dims,
        };
        self.mask.reserve_exact(layout.label.len().min(self.limit));
        sink.begin(layout.data.len() / 4)?;
        self.layout = Some(layout);
        self.payload(region, &head[region..], sink)
    }

    /// Hands on the parts of `bytes`, which start `at` bytes into the
    /// file, that are `data` values or `label` bytes.
    fn payload<S: ValueSink>(
        &mut self,
        at: usize,
        bytes: &[u8],
        sink: &mut S,
    ) -> std::result::Result<(), S::Error> {
        let Some(layout) = &self.layout else {
            return Ok(());
        };
        let from = at - layout.region;
        let part = |range: &Range<usize>| {
            let start = range.start.clamp(from, from + bytes.len());
            let end = range.end.clamp(start, from + bytes.len());
            &bytes[start - from..end - from]
        };
        let (values, mask) = (part(&layout.data), part(&layout.label));
        self.mask.extend_from_slice(mask);
        self.values.push(
            values,
            |v| (v, true),
            |start, vals, _| sink.fill(start, vals),
        )
    }

    /// Ends the file: the label and the sample's `(C, H, W)`, if the
    /// directory and every payload came and the CRC holds.
    pub fn finish(self) -> Result<(Vec<u8>, (usize, usize, usize))> {
        if self.taken + self.n_held < 12 {
            return Err(DataError::Format("file too short"));
        }
        if self.crc.finalize() != u32::from_le_bytes(self.held) {
            return Err(DataError::Checksum);
        }
        let layout = self.layout.ok_or(DataError::Format(HEADER_OVERRUNS))?;
        if layout.reach > self.taken - layout.region {
            return Err(DataError::Format("payload out of range"));
        }
        Ok((self.mask, layout.dims))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cosmoflow::{CosmoFlowConfig, CosmoSample, UniverseGenerator};
    use crate::deepcam::{ClimateGenerator, DeepCamConfig};
    use crate::h5lite::Dataset;
    use crate::serialize;

    /// Every value in order, as one vector, and how many came in each
    /// `begin`.
    #[derive(Default)]
    struct Collect {
        begun: Vec<usize>,
        vals: Vec<f32>,
    }

    impl ValueSink for Collect {
        type Error = DataError;
        fn begin(&mut self, n_values: usize) -> Result<()> {
            self.begun.push(n_values);
            Ok(())
        }
        fn fill(&mut self, start: usize, vals: &mut [f32]) -> Result<()> {
            assert_eq!(start, self.vals.len(), "runs arrive in order");
            assert!(!vals.is_empty() && vals.len() <= RUN);
            self.vals.extend_from_slice(vals);
            Ok(())
        }
    }

    /// `bytes` pushed in pieces of `piece` bytes.
    fn cosmo_in_pieces(bytes: &[u8], piece: usize) -> Result<((usize, CosmoParams), Collect)> {
        let mut reader = CosmoPayloadReader::new();
        let mut sink = Collect::default();
        for run in bytes.chunks(piece.max(1)) {
            reader.push(run, &mut sink)?;
        }
        Ok((reader.finish()?, sink))
    }

    /// The label, the `(C, H, W)` and the values.
    type DeepCamRead = ((Vec<u8>, (usize, usize, usize)), Collect);

    fn deepcam_in_pieces(bytes: &[u8], piece: usize) -> Result<DeepCamRead> {
        let mut reader = DeepCamH5Reader::new(usize::MAX);
        let mut sink = Collect::default();
        for run in bytes.chunks(piece.max(1)) {
            reader.push(run, &mut sink)?;
        }
        Ok((reader.finish()?, sink))
    }

    /// The `label` dataset's bytes, as the container's generic reader
    /// finds them.
    fn h5lite_label(bytes: &[u8]) -> Vec<u8> {
        let datasets = h5lite::read(bytes).unwrap();
        let label = datasets.into_iter().find(|d| d.name == "label").unwrap();
        label.payload
    }

    #[test]
    fn a_cosmo_payload_in_any_pieces_reads_as_the_whole_one() {
        let s = UniverseGenerator::new(CosmoFlowConfig::test_small()).generate(0);
        let payload = serialize::cosmo_to_payload(&s);
        let want: Vec<f32> = s.counts.iter().map(|&c| c as f32).collect();
        for piece in [1, 2, 3, 5, 23, 24, 25, 4096, 16 * 1024 + 3, payload.len()] {
            let (head, got) = cosmo_in_pieces(&payload, piece).unwrap();
            assert_eq!(head, (s.grid, s.label), "piece {piece}");
            assert_eq!(got.begun, [s.counts.len()]);
            assert!(got.vals == want, "piece {piece}");
        }
    }

    #[test]
    fn a_cosmo_payload_is_refused_where_the_whole_one_is() {
        let payload = serialize::cosmo_to_payload(&CosmoSample {
            grid: 1,
            counts: vec![7, 0, 65535, 1],
            label: CosmoParams::MEANS,
        });
        for cut in 0..payload.len() {
            assert!(cosmo_in_pieces(&payload[..cut], 3).is_err(), "cut at {cut}");
        }
        let longer = [&payload[..], &[0]].concat();
        assert!(cosmo_in_pieces(&longer, 7).is_err());
        for v in [0.5f32, -1.0, 65536.0, f32::NAN] {
            let mut bad = payload.clone();
            bad[28..32].copy_from_slice(&v.to_le_bytes());
            for piece in [1, 26, 100] {
                assert!(
                    matches!(
                        cosmo_in_pieces(&bad, piece),
                        Err(DataError::Format("count not a u16 integer"))
                    ),
                    "{v} in pieces of {piece}"
                );
            }
        }
        let mut magic = payload.clone();
        magic[0] = b'X';
        assert!(cosmo_in_pieces(&magic, 5).is_err());
        let mut huge = payload.clone();
        huge[4..8].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(cosmo_in_pieces(&huge, 64).is_err());
    }

    #[test]
    fn a_deepcam_file_in_any_pieces_reads_as_the_whole_one() {
        let s = ClimateGenerator::new(DeepCamConfig::test_small()).generate(0);
        let h5 = serialize::deepcam_to_h5(&s).unwrap();
        for piece in [1, 2, 3, 4, 5, 7, 99, 4096, h5.len() - 1, h5.len()] {
            let ((mask, dims), got) = deepcam_in_pieces(&h5, piece).unwrap();
            assert_eq!(mask, s.mask, "piece {piece}");
            assert_eq!(dims, (s.channels, s.height, s.width));
            assert_eq!(got.begun, [s.data.len()]);
            assert!(
                got.vals
                    .iter()
                    .map(|v| v.to_bits())
                    .eq(s.data.iter().map(|v| v.to_bits())),
                "piece {piece}"
            );
        }
    }

    /// Datasets in another order, one more beside them, and a label that
    /// shares its bytes with the data: the whole-file reader takes each
    /// dataset's bytes where its entry says, and so does this one.
    #[test]
    fn a_deepcam_file_is_read_by_its_directory_not_its_order() {
        let s = ClimateGenerator::new(DeepCamConfig::test_small()).generate(1);
        let (c, h, w) = (s.channels as u64, s.height as u64, s.width as u64);
        let data = Dataset::from_f32("data", &[c, h, w], &s.data);
        let label = Dataset::from_u8("label", &[h, w], &s.mask);
        let extra = Dataset::from_u16("extra", &[3], &[1, 2, 3]);
        let reordered = h5lite::write(&[extra, label, data.clone()]).unwrap();
        let ((mask, _), got) = deepcam_in_pieces(&reordered, 13).unwrap();
        assert_eq!(mask, s.mask);
        assert_eq!(got.vals, s.data);
        // A label whose entry points at the data's first bytes.
        let mut shared =
            h5lite::write(&[data, Dataset::from_u8("label", &[h, w], &s.mask)]).unwrap();
        let whole = h5lite_label(&shared);
        let at = shared.windows(5).position(|x| x == b"label").unwrap() + 5 + 2 + 16;
        shared[at..at + 8].copy_from_slice(&0u64.to_le_bytes());
        let n = shared.len() - 4;
        let crc = sciml_compress::crc32::crc32(&shared[..n]);
        shared[n..].copy_from_slice(&crc.to_le_bytes());
        let moved = h5lite_label(&shared);
        assert_ne!(moved, whole);
        let ((mask, _), _) = deepcam_in_pieces(&shared, 1000).unwrap();
        assert_eq!(mask, moved);
    }

    #[test]
    fn a_deepcam_file_is_refused_where_the_whole_one_is() {
        let s = ClimateGenerator::new(DeepCamConfig::test_small()).generate(2);
        let h5 = serialize::deepcam_to_h5(&s).unwrap();
        // Every cut and flip in the directory, and some in the payload.
        let places = || (0..200).chain((200..h5.len()).step_by(4999));
        for cut in places().chain(h5.len() - 8..h5.len()) {
            assert!(deepcam_in_pieces(&h5[..cut], 64).is_err(), "cut at {cut}");
        }
        for at in places() {
            let mut bad = h5.clone();
            bad[at] ^= 0x10;
            assert!(deepcam_in_pieces(&bad, 500).is_err(), "flip at {at}");
        }
        let longer = [&h5[..], &[0]].concat();
        assert!(deepcam_in_pieces(&longer, 500).is_err());
    }
}
