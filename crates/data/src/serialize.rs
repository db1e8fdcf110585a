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
use crate::stream::{CosmoPayloadReader, DeepCamH5Reader, ValueSink, MORE_VALUES_THAN_INPUT};
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

/// A [`ValueSink`] that keeps every value a reader hands on, converted
/// by `keep`: how the owned samples below get their values from the
/// one reader of their layout. It sizes its `Vec` from the header only
/// once the input's length has bounded the count.
struct Keep<T> {
    /// The most values the input can hold: a quarter of its bytes.
    most: usize,
    keep: fn(f32) -> T,
    values: Vec<T>,
}

impl<T> Keep<T> {
    fn new(input_len: usize, keep: fn(f32) -> T) -> Self {
        Keep {
            most: input_len / 4,
            keep,
            values: Vec::new(),
        }
    }
}

impl<T> ValueSink for Keep<T> {
    type Error = DataError;

    fn begin(&mut self, n_values: usize) -> Result<()> {
        if n_values > self.most {
            return Err(DataError::Format(MORE_VALUES_THAN_INPUT));
        }
        self.values.reserve_exact(n_values);
        Ok(())
    }

    fn fill(&mut self, _start: usize, vals: &mut [f32]) -> Result<()> {
        self.values.extend(vals.iter().map(|&v| (self.keep)(v)));
        Ok(())
    }
}

/// Parses the baseline CosmoFlow payload back into a sample.
pub fn cosmo_from_payload(data: &[u8]) -> Result<CosmoSample> {
    let mut counts = Keep::new(data.len(), |c| c as u16);
    let mut reader = CosmoPayloadReader::new();
    reader.push(data, &mut counts)?;
    let (grid, label) = reader.finish()?;
    Ok(CosmoSample {
        grid,
        counts: counts.values,
        label,
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
    let mut data = Keep::new(bytes.len(), |v| v);
    let mut reader = DeepCamH5Reader::new(bytes.len());
    reader.push(bytes, &mut data)?;
    let (mask, (channels, height, width)) = reader.finish()?;
    Ok(DeepCamSample {
        width,
        height,
        channels,
        data: data.values,
        mask,
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

    /// A header whose count the input cannot hold is refused before
    /// anything is sized from it, by either layout.
    #[test]
    fn a_count_past_the_input_is_refused_before_anything_is_sized() {
        let s = UniverseGenerator::new(CosmoFlowConfig::test_small()).generate(0);
        let head = &cosmo_to_payload(&s)[..COSMO_HEAD];
        assert!(matches!(
            cosmo_from_payload(head),
            Err(DataError::Format(MORE_VALUES_THAN_INPUT))
        ));
        // A DeepCAM file cut to its directory, under a valid CRC.
        let d = ClimateGenerator::new(DeepCamConfig::test_small()).generate(0);
        let h5 = deepcam_to_h5(&d).unwrap();
        let mut dir = h5[..h5.len() - 4 - 4 * d.data.len() - d.mask.len()].to_vec();
        let crc = sciml_compress::crc32::crc32(&dir);
        dir.extend_from_slice(&crc.to_le_bytes());
        assert!(matches!(
            deepcam_from_h5(&dir),
            Err(DataError::Format(MORE_VALUES_THAN_INPUT))
        ));
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
