//! Baseline on-disk layouts for both sample types.
//!
//! These mirror what the real benchmarks read, one file per sample:
//! CosmoFlow samples as a `CFSM` payload carrying the voxel histogram
//! widened to f32 (what a TFRecord record holds in the paper's
//! uncompressed baseline), and DeepCAM samples as HDF5-style files with
//! a `data` f32 dataset and a `label` mask.

use crate::cosmoflow::{CosmoParams, CosmoSample, N_REDSHIFTS};
use crate::deepcam::DeepCamSample;
use crate::h5lite::{self, DType, Dataset};
use crate::{DataError, Result};

const COSMO_MAGIC: &[u8; 4] = b"CFSM";

/// Bytes of a `CFSM` header: magic, grid, four f32 label values.
pub(crate) const COSMO_HEAD: usize = 24;

/// Parses a `CFSM` header: the grid, the label and the values the body
/// holds (`grid³ × N_REDSHIFTS`, whose bytes fit a `usize`).
pub(crate) fn cosmo_head(head: &[u8; COSMO_HEAD]) -> Result<(usize, CosmoParams, usize)> {
    if &head[0..4] != COSMO_MAGIC {
        return Err(DataError::Format("bad cosmoflow payload header"));
    }
    let word = |i: usize| [head[i], head[i + 1], head[i + 2], head[i + 3]];
    let grid = u32::from_le_bytes(word(4)) as usize;
    let [omega_m, sigma8, n_s, h] = [8, 12, 16, 20].map(|i| f32::from_le_bytes(word(i)));
    let n_values = grid
        .checked_pow(3)
        .and_then(|v| v.checked_mul(N_REDSHIFTS))
        .filter(|n| n.checked_mul(4).is_some())
        .ok_or(DataError::Format("grid size overflow"))?;
    let label = CosmoParams {
        omega_m,
        sigma8,
        n_s,
        h,
    };
    Ok((grid, label, n_values))
}

/// Serializes a CosmoFlow sample to the baseline's `CFSM` payload:
/// magic, grid size, label, then all counts widened to little-endian f32
/// (channel-major), exactly the tensor the baseline pipeline ships.
pub fn cosmo_to_payload(sample: &CosmoSample) -> Vec<u8> {
    let mut out = Vec::with_capacity(20 + sample.counts.len() * 4);
    out.extend_from_slice(COSMO_MAGIC);
    out.extend_from_slice(&(sample.grid as u32).to_le_bytes());
    for v in sample.label.as_array() {
        out.extend_from_slice(&v.to_le_bytes());
    }
    for &c in &sample.counts {
        out.extend_from_slice(&(c as f32).to_le_bytes());
    }
    out
}

/// A baseline CosmoFlow payload with its header parsed and its body
/// left where it is: the baseline decoders preprocess straight from
/// these bytes, a chunk at a time, without a `Vec` of counts between.
#[derive(Debug, Clone, Copy)]
pub struct CosmoPayload<'a> {
    /// Grid edge length.
    pub grid: usize,
    /// Regression label.
    pub label: CosmoParams,
    /// `grid³ × N_REDSHIFTS` little-endian f32, channel-major.
    body: &'a [u8],
}

/// The count a payload value stands for, as the f32 the preprocessing
/// operator sees, and whether the value was one: a u16 integer (`−0.0`
/// counts as `0` and comes back `+0.0`). The saturating casts send
/// everything else — fractions, negatives, 65 536 and up, ±∞, NaN — to a
/// count that does not compare equal to it.
#[inline]
pub(crate) fn canonical_count(v: f32) -> (f32, bool) {
    let c = v as u16 as f32;
    (c, c == v)
}

impl<'a> CosmoPayload<'a> {
    /// Parses the header and checks the body's length against the grid.
    /// The values themselves are checked when they are read.
    pub fn parse(data: &'a [u8]) -> Result<Self> {
        let head = data
            .first_chunk::<COSMO_HEAD>()
            .ok_or(DataError::Format("bad cosmoflow payload header"))?;
        let (grid, label, n_values) = cosmo_head(head)?;
        let body = &data[COSMO_HEAD..];
        if Some(body.len()) != n_values.checked_mul(4) {
            return Err(DataError::Format("cosmoflow payload length mismatch"));
        }
        Ok(Self { grid, label, body })
    }

    /// Values in the body (`grid³ × N_REDSHIFTS`).
    pub fn n_values(&self) -> usize {
        self.body.len() / 4
    }

    /// Widens the counts from value `start` on into `vals`, checking
    /// that each is a u16 integer. A range past the body's end is a
    /// format error like a bad value, never a panic.
    pub fn counts_into(&self, start: usize, vals: &mut [f32]) -> Result<()> {
        let bytes = start
            .checked_mul(4)
            .and_then(|from| self.body.get(from..)?.get(..vals.len().checked_mul(4)?))
            .ok_or(DataError::Format("count range outside payload"))?;
        // One flag for the chunk instead of a branch per value, so the
        // loop vectorises.
        let mut all_counts = true;
        for (o, b) in vals.iter_mut().zip(bytes.chunks_exact(4)) {
            let (c, ok) = canonical_count(f32::from_le_bytes([b[0], b[1], b[2], b[3]]));
            *o = c;
            all_counts &= ok;
        }
        if !all_counts {
            return Err(DataError::Format("count not a u16 integer"));
        }
        Ok(())
    }
}

/// Parses the baseline CosmoFlow payload back into a sample.
pub fn cosmo_from_payload(data: &[u8]) -> Result<CosmoSample> {
    let payload = CosmoPayload::parse(data)?;
    let mut counts = Vec::with_capacity(payload.n_values());
    let mut vals = [0f32; 4096];
    while counts.len() < payload.n_values() {
        let left = payload.n_values() - counts.len();
        let vals = &mut vals[..left.min(4096)];
        payload.counts_into(counts.len(), vals)?;
        counts.extend(vals.iter().map(|&c| c as u16));
    }
    Ok(CosmoSample {
        grid: payload.grid,
        counts,
        label: payload.label,
    })
}

/// Serializes a DeepCAM sample to an `h5lite` file image with `data`
/// ([C, H, W] f32) and `label` ([H, W] u8) datasets, mirroring the CAM5
/// HDF5 layout.
pub fn deepcam_to_h5(sample: &DeepCamSample) -> Result<Vec<u8>> {
    let data = Dataset::from_f32(
        "data",
        &[
            sample.channels as u64,
            sample.height as u64,
            sample.width as u64,
        ],
        &sample.data,
    );
    let label = Dataset::from_u8(
        "label",
        &[sample.height as u64, sample.width as u64],
        &sample.mask,
    );
    h5lite::write(&[data, label])
}

/// The checks that make an `h5lite` file's `data` and `label` datasets
/// a DeepCAM sample, made on their descriptions — type, shape and
/// payload bytes — so that a reader that has only the directory yet
/// makes them too: `data` f32 `[C, H, W]`, `label` u8 `[H, W]`, and
/// payloads of those sizes. Returns `(C, H, W)`.
pub(crate) fn deepcam_dims(
    data: (DType, &[u64], usize),
    label: (DType, &[u64], usize),
) -> Result<(usize, usize, usize)> {
    let (&[c, h, w], &[label_h, label_w]) = (data.1, label.1) else {
        return Err(DataError::Format("unexpected dataset rank"));
    };
    if (label_h, label_w) != (h, w) {
        return Err(DataError::Format("label shape mismatch"));
    }
    if label.0 != DType::U8 {
        return Err(DataError::Format("label is not u8"));
    }
    if data.0 != DType::F32 || !data.2.is_multiple_of(4) {
        return Err(DataError::Format("dataset is not f32"));
    }
    let dim = |d: u64| usize::try_from(d).map_err(|_| DataError::Format("dimension overflows"));
    let (c, h, w) = (dim(c)?, dim(h)?, dim(w)?);
    let pixels = h.checked_mul(w);
    if pixels != Some(label.2) || pixels.and_then(|p| p.checked_mul(c)) != Some(data.2 / 4) {
        return Err(DataError::Format("dataset size does not match its shape"));
    }
    Ok((c, h, w))
}

/// Parses the `h5lite` DeepCAM layout back into a sample.
pub fn deepcam_from_h5(bytes: &[u8]) -> Result<DeepCamSample> {
    let ds = h5lite::read(bytes)?;
    let data = h5lite::find(&ds, "data")?;
    let label = h5lite::find(&ds, "label")?;
    let (channels, height, width) = deepcam_dims(
        (data.dtype, &data.shape, data.payload.len()),
        (label.dtype, &label.shape, label.payload.len()),
    )?;
    Ok(DeepCamSample {
        width,
        height,
        channels,
        data: data.as_f32()?,
        mask: label.payload.clone(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cosmoflow::{CosmoFlowConfig, UniverseGenerator};
    use crate::deepcam::{ClimateGenerator, DeepCamConfig};

    #[test]
    fn cosmo_payload_roundtrip() {
        let s = UniverseGenerator::new(CosmoFlowConfig::test_small()).generate(0);
        let payload = cosmo_to_payload(&s);
        assert_eq!(payload.len(), 24 + s.counts.len() * 4);
        let back = cosmo_from_payload(&payload).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn cosmo_payload_rejects_garbage() {
        assert!(cosmo_from_payload(b"nope").is_err());
        let s = UniverseGenerator::new(CosmoFlowConfig::test_small()).generate(1);
        let mut payload = cosmo_to_payload(&s);
        payload.truncate(payload.len() - 4);
        assert!(cosmo_from_payload(&payload).is_err());
    }

    #[test]
    fn cosmo_payload_rejects_non_integer_counts() {
        let s = UniverseGenerator::new(CosmoFlowConfig::test_small()).generate(2);
        let mut payload = cosmo_to_payload(&s);
        // Overwrite the first count with 0.5.
        payload[24..28].copy_from_slice(&0.5f32.to_le_bytes());
        assert!(cosmo_from_payload(&payload).is_err());
    }

    /// A grid-1 payload (four values) with `v` as its second value.
    fn payload_with(v: f32) -> Vec<u8> {
        let mut payload = cosmo_to_payload(&CosmoSample {
            grid: 1,
            counts: vec![7, 0, 65535, 1],
            label: CosmoParams::MEANS,
        });
        payload[28..32].copy_from_slice(&v.to_le_bytes());
        payload
    }

    #[test]
    fn both_payload_paths_accept_and_reject_the_same_values() {
        for (v, count) in [(-0.0f32, 0u16), (0.0, 0), (65535.0, 65535), (3.0, 3)] {
            let payload = payload_with(v);
            let s = cosmo_from_payload(&payload).unwrap();
            assert_eq!(s.counts, [7, count, 65535, 1]);
            let mut vals = [f32::NAN; 4];
            let view = CosmoPayload::parse(&payload).unwrap();
            view.counts_into(0, &mut vals).unwrap();
            // −0.0 reads as the count 0, whose f32 is +0.0.
            assert_eq!(
                vals.map(f32::to_bits),
                [7.0, count as f32, 65535.0, 1.0].map(f32::to_bits)
            );
            let mut tail = [f32::NAN; 2];
            view.counts_into(2, &mut tail).unwrap();
            assert_eq!(tail, [65535.0, 1.0]);
        }
        let not_counts = [
            65536.0f32,
            0.5,
            -1.0,
            -0.5,
            65535.5,
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::MIN_POSITIVE,
        ];
        for v in not_counts {
            let payload = payload_with(v);
            let is_count_error =
                |e: DataError| matches!(e, DataError::Format("count not a u16 integer"));
            assert!(is_count_error(cosmo_from_payload(&payload).unwrap_err()));
            let view = CosmoPayload::parse(&payload).unwrap();
            let mut vals = [0f32; 4];
            assert!(is_count_error(view.counts_into(0, &mut vals).unwrap_err()));
            // A chunk that does not hold the bad value is still good.
            view.counts_into(2, &mut vals[..2]).unwrap();
        }
    }

    #[test]
    fn counts_into_outside_the_payload_is_an_error() {
        let payload = payload_with(1.0);
        let view = CosmoPayload::parse(&payload).unwrap();
        assert_eq!(view.n_values(), 4);
        let mut vals = [0f32; 4];
        assert!(view.counts_into(1, &mut vals).is_err());
        assert!(view.counts_into(5, &mut vals[..0]).is_err());
        assert!(view.counts_into(usize::MAX, &mut vals[..1]).is_err());
        view.counts_into(4, &mut vals[..0]).unwrap();
    }

    /// The check `cosmo_from_payload` made through libm's `truncf`
    /// until PR 17, kept to hold its replacement against.
    fn count_by_fract(v: f32) -> Option<u16> {
        ((0.0..=u16::MAX as f32).contains(&v) && v.fract() == 0.0).then_some(v as u16)
    }

    #[test]
    #[ignore = "2^32 values: release mode"]
    fn count_predicate_is_the_old_one_on_every_bit_pattern() {
        for bits in 0..=u32::MAX {
            let v = f32::from_bits(bits);
            let (c, ok) = canonical_count(v);
            assert_eq!(ok.then_some(c as u16), count_by_fract(v), "{bits:#010x}");
        }
    }

    #[test]
    fn deepcam_h5_roundtrip() {
        let s = ClimateGenerator::new(DeepCamConfig::test_small()).generate(0);
        let bytes = deepcam_to_h5(&s).unwrap();
        let back = deepcam_from_h5(&bytes).unwrap();
        assert_eq!(back, s);
    }

    /// A file whose shapes agree but whose label is not one byte a pixel,
    /// or whose data is not f32, is not a DeepCAM sample.
    #[test]
    fn deepcam_h5_requires_f32_data_and_a_u8_mask() {
        let s = ClimateGenerator::new(DeepCamConfig::test_small()).generate(0);
        let (c, h, w) = (s.channels as u64, s.height as u64, s.width as u64);
        let data = Dataset::from_f32("data", &[c, h, w], &s.data);
        let mask_f32: Vec<f32> = s.mask.iter().map(|&m| m as f32).collect();
        let mask_u16: Vec<u16> = s.mask.iter().map(|&m| m as u16).collect();
        let data_u16: Vec<u16> = vec![0; s.data.len()];
        for (what, datasets) in [
            (
                "f32 label",
                [data.clone(), Dataset::from_f32("label", &[h, w], &mask_f32)],
            ),
            (
                "u16 label",
                [data.clone(), Dataset::from_u16("label", &[h, w], &mask_u16)],
            ),
            (
                "u16 data",
                [
                    Dataset::from_u16("data", &[c, h, w], &data_u16),
                    Dataset::from_u8("label", &[h, w], &s.mask),
                ],
            ),
            (
                "label of another shape",
                [data.clone(), Dataset::from_u8("label", &[w, h], &s.mask)],
            ),
        ] {
            let bytes = h5lite::write(&datasets).unwrap();
            assert!(
                matches!(deepcam_from_h5(&bytes), Err(DataError::Format(_))),
                "{what}"
            );
        }
    }

    #[test]
    fn deepcam_h5_detects_corruption() {
        let s = ClimateGenerator::new(DeepCamConfig::test_small()).generate(0);
        let mut bytes = deepcam_to_h5(&s).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x55;
        assert!(deepcam_from_h5(&bytes).is_err());
    }
}
