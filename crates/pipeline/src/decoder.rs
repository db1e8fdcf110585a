//! Decoder plugins: baseline, gzip-baseline and CPU plugin, for each of
//! the two workloads — one plugin per format. The paper's GPU plugin
//! decodes the CPU plugin's format on the device; its §VI kernels are
//! reproduced, off the data path, in `sciml_platform::gpusim`.
//!
//! Each baseline layout has one reader, push-fed ([`sciml_data::stream`]),
//! whose values the operator narrows straight into the tensor slot. A
//! baseline and its gzip twin differ only in how the layout's bytes
//! reach that reader: the uncompressed baseline pushes its whole input
//! at once, and the gzip one inflates it through a 128 KiB window on the
//! decode thread's stack ([`sciml_compress::gzip_decompress_chunks`]),
//! pushing each run. Neither holds a copy of the sample.

use crate::batch::Label;
use crate::{PipelineError, Result};
use sciml_codec::cosmoflow as cf;
use sciml_codec::deepcam as dc;
use sciml_codec::Op;
use sciml_compress::Level;
use sciml_data::stream::{CosmoPayloadReader, DeepCamH5Reader, ValueSink, MORE_VALUES_THAN_INPUT};
use sciml_data::DataError;
use sciml_half::F16;

/// A decoded, preprocessed, FP16 sample ready for batching.
///
/// Deliberately not `Clone`: a sample tensor is megabytes at paper
/// scale, and the pipeline's zero-copy path never duplicates one.
#[derive(Debug, PartialEq)]
pub struct DecodedSample {
    /// Channel-major FP16 tensor.
    pub data: Vec<F16>,
    /// Training label.
    pub label: Label,
}

/// The plugin interface the pipeline's decode pool calls.
pub trait DecoderPlugin: Send + Sync {
    /// Decodes one sample's bytes into a training-ready tensor.
    fn decode(&self, bytes: &[u8]) -> Result<DecodedSample>;

    /// Decodes one sample directly into `out` (a slot of a pooled batch
    /// tensor), returning only the label. `out` must be exactly the
    /// sample length; a mismatch is a typed error, never a panic, and
    /// on success every slot of `out` is written.
    fn decode_into(&self, bytes: &[u8], out: &mut [F16]) -> Result<Label>;

    /// Human-readable name (for stats and figures).
    fn name(&self) -> &'static str;
}

// ---------------------------------------------------------------------
// The baselines' one path: a feed, a layout's reader, the operator
// ---------------------------------------------------------------------

/// How a layout's bytes reach its reader: the one difference between a
/// baseline and its gzip twin.
trait Feed {
    /// Hands `push` every run of the layout's bytes, in order, and no
    /// more than `limit` bytes in all.
    fn runs(self, limit: usize, push: impl FnMut(&[u8]) -> Result<()>) -> Result<()>;
}

/// The uncompressed baselines' feed: the whole input, in one push (the
/// sink's limit is its length).
struct Whole<'a>(&'a [u8]);

impl Feed for Whole<'_> {
    fn runs(self, _limit: usize, mut push: impl FnMut(&[u8]) -> Result<()>) -> Result<()> {
        push(self.0)
    }
}

/// The gzip baselines' feed: the input inflated through the window.
struct Gunzip<'a>(&'a [u8]);

impl Feed for Gunzip<'_> {
    fn runs(self, limit: usize, push: impl FnMut(&[u8]) -> Result<()>) -> Result<()> {
        sciml_compress::gzip_decompress_chunks(self.0, limit, push)
    }
}

/// A [`ValueSink`] that applies the operator to each run of values a
/// reader hands on and narrows it into its place in the tensor: the
/// caller's slot, or else one of its own, made once the header says how
/// long.
struct Narrow<'a> {
    op: Op,
    slot: Option<&'a mut [F16]>,
    owned: Vec<F16>,
    /// The most bytes the feed hands on: no valid sample holds more than
    /// a quarter of it in values, so an owned tensor is never made
    /// larger.
    limit: usize,
}

impl ValueSink for Narrow<'_> {
    type Error = PipelineError;

    fn begin(&mut self, n_values: usize) -> Result<()> {
        match &self.slot {
            Some(slot) if slot.len() != n_values => {
                Err(sciml_codec::CodecError::Inconsistent("output slice length mismatch").into())
            }
            Some(_) => Ok(()),
            None if n_values > self.limit / 4 => {
                Err(DataError::Format(MORE_VALUES_THAN_INPUT).into())
            }
            None => {
                // lint:allow(no_alloc_hot_loop): `decode` only, a tensor of its own sized once from the header; `decode_into` writes the caller's slot
                self.owned = vec![F16::ZERO; n_values];
                Ok(())
            }
        }
    }

    fn fill(&mut self, start: usize, vals: &mut [f32]) -> Result<()> {
        let tensor = match &mut self.slot {
            Some(slot) => &mut **slot,
            None => &mut self.owned[..],
        };
        let dst = tensor
            .get_mut(start..start + vals.len())
            .ok_or(DataError::Format("values past the header's count"))?;
        self.op.narrow_into(vals, dst);
        Ok(())
    }
}

impl<'a> Narrow<'a> {
    /// Into `slot`, reading no more than `limit` bytes.
    fn into_slot(op: Op, slot: &'a mut [F16], limit: usize) -> Self {
        Narrow {
            op,
            slot: Some(slot),
            owned: Vec::new(),
            limit,
        }
    }

    /// Into a tensor of its own, reading no more than `limit` bytes.
    fn owned(op: Op, limit: usize) -> Self {
        Narrow {
            op,
            slot: None,
            owned: Vec::new(),
            limit,
        }
    }

    /// The tensor of its own that `read` decodes into, with the label.
    fn decoded(mut self, read: impl FnOnce(&mut Self) -> Result<Label>) -> Result<DecodedSample> {
        let label = read(&mut self)?;
        Ok(DecodedSample {
            data: self.owned,
            label,
        })
    }

    /// A `CFSM` payload, its bytes handed over by `feed`.
    fn cosmo(&mut self, feed: impl Feed) -> Result<Label> {
        let mut reader = CosmoPayloadReader::new();
        feed.runs(self.limit, |run| reader.push(run, self))?;
        let (_, label) = CosmoPayloadReader::finish(reader)?;
        Ok(Label::Cosmo(label.as_array()))
    }

    /// An `h5lite` DeepCAM file, its bytes handed over by `feed`.
    fn deepcam(&mut self, feed: impl Feed) -> Result<Label> {
        // lint:allow(no_alloc_hot_loop): two empty `Vec`s, which allocate nothing; the label the sample returns is reserved once, in `push`
        let mut reader = DeepCamH5Reader::new(self.limit);
        feed.runs(self.limit, |run| reader.push(run, self))?;
        let (mask, _) = DeepCamH5Reader::finish(reader)?;
        Ok(Label::Mask(mask))
    }
}

/// The most bytes a gzip baseline's owned `decode` inflates: as many as
/// any stream of `gz`'s length can.
fn inflate_limit(gz: &[u8]) -> usize {
    gz.len().saturating_mul(sciml_compress::gzip::MAX_EXPANSION)
}

// ---------------------------------------------------------------------
// CosmoFlow plugins
// ---------------------------------------------------------------------

/// Baseline: uncompressed f32 `CFSM` payload, per-voxel op on the CPU.
pub struct CosmoBaseline {
    /// Preprocessing operator (the benchmark uses `Log1p`).
    pub op: Op,
}

impl DecoderPlugin for CosmoBaseline {
    fn decode(&self, bytes: &[u8]) -> Result<DecodedSample> {
        Narrow::owned(self.op, bytes.len()).decoded(|sink| sink.cosmo(Whole(bytes)))
    }

    fn decode_into(&self, bytes: &[u8], out: &mut [F16]) -> Result<Label> {
        Narrow::into_slot(self.op, out, bytes.len()).cosmo(Whole(bytes))
    }

    fn name(&self) -> &'static str {
        "cosmo-baseline"
    }
}

/// gzip baseline: the payload is gzip-compressed; decompression happens
/// on the host CPU (there is no GPU gunzip), then the baseline path runs.
pub struct CosmoGzip {
    /// Preprocessing operator.
    pub op: Op,
}

impl CosmoGzip {
    /// Prepares a gzip-compressed payload (dataset preparation helper).
    pub fn compress_payload(payload: &[u8]) -> Vec<u8> {
        sciml_compress::gzip_compress(payload, Level::Default)
    }
}

impl DecoderPlugin for CosmoGzip {
    fn decode(&self, bytes: &[u8]) -> Result<DecodedSample> {
        Narrow::owned(self.op, inflate_limit(bytes)).decoded(|sink| sink.cosmo(Gunzip(bytes)))
    }

    fn decode_into(&self, bytes: &[u8], out: &mut [F16]) -> Result<Label> {
        // A payload that fills `out` is its header and one f32 a value.
        let limit = out.len().saturating_mul(4).saturating_add(24);
        Narrow::into_slot(self.op, out, limit).cosmo(Gunzip(bytes))
    }

    fn name(&self) -> &'static str {
        "cosmo-gzip"
    }
}

/// CPU plugin: custom LUT encoding with fused op, decoded in place from
/// the bytes as they were fetched. One thread a sample, like
/// [`DeepCamPluginCpu`].
pub struct CosmoPluginCpu {
    /// Preprocessing operator (fused into the table).
    pub op: Op,
}

/// The plugin's steady state: a parsed view into a tensor slot.
fn cosmo_view_into(view: &cf::CosmoView<'_>, op: Op, out: &mut [F16]) -> Result<Label> {
    cf::decode_view_into(view, op, out)?;
    Ok(Label::Cosmo(view.label))
}

impl DecoderPlugin for CosmoPluginCpu {
    fn decode(&self, bytes: &[u8]) -> Result<DecodedSample> {
        let view = cf::CosmoView::parse(bytes)?;
        let mut data = vec![F16::ZERO; view.n_values()];
        let label = cosmo_view_into(&view, self.op, &mut data)?;
        Ok(DecodedSample { data, label })
    }

    fn decode_into(&self, bytes: &[u8], out: &mut [F16]) -> Result<Label> {
        cosmo_view_into(&cf::CosmoView::parse(bytes)?, self.op, out)
    }

    fn name(&self) -> &'static str {
        "cosmo-plugin-cpu"
    }
}

// ---------------------------------------------------------------------
// DeepCAM plugins
// ---------------------------------------------------------------------

/// Baseline: h5lite (HDF5 stand-in) f32 data, per-pixel normalize on the
/// host, cast to FP16.
pub struct DeepCamBaseline {
    /// Per-channel normalization operator.
    pub op: Op,
}

impl DecoderPlugin for DeepCamBaseline {
    fn decode(&self, bytes: &[u8]) -> Result<DecodedSample> {
        Narrow::owned(self.op, bytes.len()).decoded(|sink| sink.deepcam(Whole(bytes)))
    }

    fn decode_into(&self, bytes: &[u8], out: &mut [F16]) -> Result<Label> {
        Narrow::into_slot(self.op, out, bytes.len()).deepcam(Whole(bytes))
    }

    fn name(&self) -> &'static str {
        "deepcam-baseline"
    }
}

/// gzip-compressed h5lite baseline.
pub struct DeepCamGzip {
    /// Per-channel normalization operator.
    pub op: Op,
}

/// Room for an h5lite image's dataset directory and CRC (about 100
/// bytes for `data` + `label`) in [`DeepCamGzip`]'s inflate limit.
const H5_HEADER_ALLOWANCE: usize = 4096;

impl DecoderPlugin for DeepCamGzip {
    fn decode(&self, bytes: &[u8]) -> Result<DecodedSample> {
        Narrow::owned(self.op, inflate_limit(bytes)).decoded(|sink| sink.deepcam(Gunzip(bytes)))
    }

    fn decode_into(&self, bytes: &[u8], out: &mut [F16]) -> Result<Label> {
        // An image that fills `out` is one f32 a value, a mask of at
        // most one byte a value (one channel), and the header.
        let limit = out
            .len()
            .saturating_mul(5)
            .saturating_add(H5_HEADER_ALLOWANCE);
        Narrow::into_slot(self.op, out, limit).deepcam(Gunzip(bytes))
    }

    fn name(&self) -> &'static str {
        "deepcam-gzip"
    }
}

/// CPU plugin: differential codec, decoded in place from the bytes as
/// they were fetched. One thread a sample: the decode pool runs
/// `decode_threads` samples at once, so a plugin never forks inside one.
pub struct DeepCamPluginCpu {
    /// Fused operator applied at emission.
    pub op: Op,
}

/// The plugin's steady state: a parsed view into a tensor slot.
fn deepcam_view_into(view: &dc::DeepCamView<'_>, op: Op, out: &mut [F16]) -> Result<Label> {
    dc::decode_view_into(view, op, out)?;
    // lint:allow(no_alloc_hot_loop): the label leaves with the batch; expanding its runs is the sample's one allocation
    let mut mask = Vec::new();
    view.expand_mask_into(&mut mask);
    Ok(Label::Mask(mask))
}

impl DecoderPlugin for DeepCamPluginCpu {
    fn decode(&self, bytes: &[u8]) -> Result<DecodedSample> {
        let view = dc::DeepCamView::parse(bytes)?;
        let mut data = vec![F16::ZERO; view.n_values()];
        let label = deepcam_view_into(&view, self.op, &mut data)?;
        Ok(DecodedSample { data, label })
    }

    fn decode_into(&self, bytes: &[u8], out: &mut [F16]) -> Result<Label> {
        deepcam_view_into(&dc::DeepCamView::parse(bytes)?, self.op, out)
    }

    fn name(&self) -> &'static str {
        "deepcam-plugin-cpu"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PipelineError;
    use sciml_data::cosmoflow::{CosmoFlowConfig, CosmoParams, CosmoSample, UniverseGenerator};
    use sciml_data::deepcam::{ClimateGenerator, DeepCamConfig};
    use sciml_data::serialize;
    use sciml_simd::{force, supported_levels};

    /// The reference every DeepCAM baseline is held to: the generator's
    /// values narrowed directly, with no reader between.
    fn narrowed(op: Op, data: &[f32]) -> Vec<F16> {
        let mut out = vec![F16::ZERO; data.len()];
        op.narrow_into(&mut data.to_vec(), &mut out);
        out
    }

    fn bits(d: &[F16]) -> Vec<u16> {
        d.iter().map(|v| v.to_bits()).collect()
    }

    /// One sample as the three CosmoFlow formats: raw payload, gzip,
    /// plugin encoding.
    fn cosmo_payloads_of(cfg: CosmoFlowConfig) -> (Vec<u8>, Vec<u8>, Vec<u8>) {
        let s = UniverseGenerator::new(cfg).generate(0);
        let raw = serialize::cosmo_to_payload(&s);
        let gz = CosmoGzip::compress_payload(&raw);
        let enc = cf::encode(&s).to_bytes();
        (raw, gz, enc)
    }

    fn cosmo_payloads() -> (Vec<u8>, Vec<u8>, Vec<u8>) {
        cosmo_payloads_of(CosmoFlowConfig::test_small())
    }

    #[test]
    fn cosmo_plugins_agree_bitwise() {
        // Grids whose value counts leave every kind of tail: 500 and
        // 2048 values, and the benchmark's 48³ × 4 (108 operator
        // chunks). Each family is also held to its own scalar output.
        let op = Op::Log1p;
        for grid in [5, 8, 48] {
            let cfg = CosmoFlowConfig {
                grid,
                halos: 6,
                ..CosmoFlowConfig::test_small()
            };
            let s = UniverseGenerator::new(cfg.clone()).generate(0);
            let (raw, gz, enc) = cosmo_payloads_of(cfg);
            let mut scalar: Option<DecodedSample> = None;
            for lvl in supported_levels() {
                let _g = force(Some(lvl));
                let base = CosmoBaseline { op }.decode(&raw).unwrap();
                // A reference that is not the reader: the sample's
                // counts through the per-voxel pass.
                assert_eq!(base.data, cf::baseline_preprocess(&s, op), "{lvl:?}");
                assert_eq!(base.label, Label::Cosmo(s.label.as_array()));
                let gzip = CosmoGzip { op }.decode(&gz).unwrap();
                let cpu = CosmoPluginCpu { op }.decode(&enc).unwrap();
                assert_eq!(base.data.len(), grid * grid * grid * 4);
                assert_eq!(base, gzip, "grid {grid} at {lvl:?}");
                assert_eq!(
                    base.data, cpu.data,
                    "fused CPU plugin must be bit-identical (grid {grid} at {lvl:?})"
                );
                assert_eq!(base.label, cpu.label);
                let scalar = scalar.get_or_insert(base);
                assert_eq!(scalar.data, cpu.data, "grid {grid}: {lvl:?} vs scalar");
            }
        }
    }

    #[test]
    fn baseline_paths_reject_what_cosmo_from_payload_rejects() {
        // The in-place path reads the same header and the same values
        // as `serialize::cosmo_from_payload`, and says the same thing
        // about each.
        let (raw, _, _) = cosmo_payloads();
        let n = (raw.len() - 24) / 4;
        let mut out = vec![F16::ONE; n];
        let plugin = CosmoBaseline { op: Op::Log1p };
        let both = |bytes: &[u8], out: &mut [F16]| {
            let ours = plugin.decode_into(bytes, out).map(|_| ());
            let theirs = serialize::cosmo_from_payload(bytes).map(|_| ());
            (ours, theirs)
        };
        assert!(matches!(both(&raw, &mut out), (Ok(()), Ok(()))));
        // A bad value in the first chunk, the last chunk, the last slot.
        for slot in [0, 1, n / 2, n - 4097, n - 1] {
            for v in [0.5f32, -1.0, 65536.0, f32::NAN, f32::INFINITY] {
                let mut bad = raw.clone();
                bad[24 + 4 * slot..28 + 4 * slot].copy_from_slice(&v.to_le_bytes());
                let (ours, theirs) = both(&bad, &mut out);
                match (ours, theirs) {
                    (
                        Err(PipelineError::Source(sciml_data::DataError::Format(a))),
                        Err(sciml_data::DataError::Format(b)),
                    ) => assert_eq!(
                        (a, b),
                        ("count not a u16 integer", "count not a u16 integer")
                    ),
                    other => panic!("slot {slot} value {v}: {other:?}"),
                }
            }
        }
        // −0.0 is the count 0 on both, and decodes as +0.0 does.
        let mut zeroed = raw.clone();
        zeroed[24..28].copy_from_slice(&0.0f32.to_le_bytes());
        let want = plugin.decode(&zeroed).unwrap();
        zeroed[24..28].copy_from_slice(&(-0.0f32).to_le_bytes());
        assert_eq!(plugin.decode(&zeroed).unwrap(), want);
        assert_eq!(want.data[0], F16::ZERO);
        // Header damage and a wrong-sized output are typed errors too.
        let (ours, theirs) = both(&raw[..raw.len() - 4], &mut out);
        assert!(ours.is_err() && theirs.is_err());
        assert!(matches!(
            plugin.decode_into(&raw, &mut out[1..]),
            Err(PipelineError::Decode(_))
        ));
    }

    /// A grid-1 payload (four values) with `v` as its second value.
    fn payload_with(v: f32) -> Vec<u8> {
        let mut payload = serialize::cosmo_to_payload(&CosmoSample {
            grid: 1,
            counts: vec![7, 0, 65535, 1],
            label: CosmoParams::MEANS,
        });
        payload[28..32].copy_from_slice(&v.to_le_bytes());
        payload
    }

    /// The owned sample and the baseline plugin take the same values as
    /// counts and refuse the same ones.
    #[test]
    fn both_payload_paths_accept_and_reject_the_same_values() {
        let plugin = CosmoBaseline { op: Op::Identity };
        for (v, count) in [(-0.0f32, 0u16), (0.0, 0), (65535.0, 65535), (3.0, 3)] {
            let payload = payload_with(v);
            let s = serialize::cosmo_from_payload(&payload).unwrap();
            assert_eq!(s.counts, [7, count, 65535, 1]);
            let mut out = [F16::ONE; 4];
            plugin.decode_into(&payload, &mut out).unwrap();
            // −0.0 reads as the count 0, whose FP16 is +0.0.
            assert_eq!(
                bits(&out),
                bits(&[7.0, count as f32, 65535.0, 1.0].map(F16::from_f32))
            );
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
                |e: &DataError| matches!(e, DataError::Format("count not a u16 integer"));
            let err = serialize::cosmo_from_payload(&payload).unwrap_err();
            assert!(is_count_error(&err), "{v}: {err}");
            match plugin.decode_into(&payload, &mut [F16::ONE; 4]) {
                Err(PipelineError::Source(e)) if is_count_error(&e) => {}
                other => panic!("{v}: {other:?}"),
            }
        }
    }

    #[test]
    fn cosmo_encoded_is_smaller_than_raw_and_gzip_decodes_on_cpu_only() {
        let (raw, gz, enc) = cosmo_payloads();
        assert!(
            enc.len() * 3 < raw.len(),
            "enc {} raw {}",
            enc.len(),
            raw.len()
        );
        // gzip is also smaller but must round-trip through the CPU path.
        assert!(gz.len() < raw.len());
    }

    #[test]
    fn deepcam_plugins_roundtrip_and_masks_survive() {
        let s = ClimateGenerator::new(DeepCamConfig::test_small()).generate(0);
        let h5 = serialize::deepcam_to_h5(&s).unwrap();
        let op = Op::Identity;
        let base = DeepCamBaseline { op }.decode(&h5).unwrap();
        let gz = DeepCamGzip { op }
            .decode(&sciml_compress::gzip_compress(&h5, Level::Default))
            .unwrap();
        assert_eq!(base, gz);
        assert_eq!(bits(&base.data), bits(&narrowed(op, &s.data)));
        assert_eq!(base.label, Label::Mask(s.mask.clone()));

        let (enc, _) = dc::encode(&s, &dc::EncoderConfig::default());
        let bytes = enc.to_bytes();
        let cpu = DeepCamPluginCpu { op }.decode(&bytes).unwrap();
        assert_eq!(cpu.label, Label::Mask(s.mask.clone()));
        assert_eq!(base.data.len(), cpu.data.len());
    }

    /// The DeepCAM gzip baseline's windowed decode is the whole-payload
    /// path's tensor and mask, bit for bit, at every SIMD tier and for
    /// every operator.
    #[test]
    fn deepcam_gzip_is_the_baseline_at_every_tier() {
        let s = ClimateGenerator::new(DeepCamConfig::test_small()).generate(1);
        let h5 = serialize::deepcam_to_h5(&s).unwrap();
        let gz = sciml_compress::gzip_compress(&h5, Level::Fast);
        let normalize = Op::Normalize {
            scale: 0.25,
            offset: 3.0,
        };
        for lvl in supported_levels() {
            let _g = force(Some(lvl));
            for op in [Op::Identity, normalize, Op::Log1p] {
                let base = DeepCamBaseline { op }.decode(&h5).unwrap();
                let want = narrowed(op, &s.data);
                assert_eq!(bits(&base.data), bits(&want), "{op:?} at {lvl:?}");
                assert_eq!(base.label, Label::Mask(s.mask.clone()));
                let mut out = vec![F16::ONE; base.data.len()];
                let label = DeepCamGzip { op }.decode_into(&gz, &mut out).unwrap();
                let same = |a: &[F16], b: &[F16]| {
                    a.iter()
                        .map(|v| v.to_bits())
                        .eq(b.iter().map(|v| v.to_bits()))
                };
                assert!(same(&out, &base.data), "{op:?} at {lvl:?}");
                assert_eq!(label, base.label, "{op:?} at {lvl:?}");
                let owned = DeepCamGzip { op }.decode(&gz).unwrap();
                assert!(same(&owned.data, &base.data), "{op:?} at {lvl:?}");
            }
        }
    }

    /// The 36 bytes that used to kill a decode thread at
    /// `chunks_mut(0)`, and the retired wire version 2 through the same
    /// two methods.
    #[test]
    fn deepcam_plugins_reject_zero_dimensions_and_the_retired_wire_version() {
        let mut blob = b"DCMX".to_vec();
        blob.extend_from_slice(&3u32.to_le_bytes());
        blob.extend_from_slice(&[0u8; 12 + 16]);
        assert_eq!(blob.len(), 36);
        // A wire-v2 blob whose payload section is 24 bytes of `SPAK`
        // header (`crates/pack`) declaring a terabyte: sized from, it
        // aborted the process; now nothing past the version is read.
        let mut hostile = b"DCMX".to_vec();
        for field in [2u32, 4, 1, 1] {
            hostile.extend_from_slice(&field.to_le_bytes());
        }
        hostile.extend_from_slice(&[1, 0, 0, 0, 0, 16, 0, 0, 0]);
        hostile.extend_from_slice(&24u64.to_le_bytes());
        hostile.extend_from_slice(&[
            83, 80, 65, 75, 1, 1, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 1, 0, 0, 52, 137, 49, 151,
        ]);
        hostile.extend_from_slice(&0u64.to_le_bytes());
        assert_eq!(hostile.len(), 69);

        let plugin = DeepCamPluginCpu { op: Op::Identity };
        for (bytes, verdict) in [
            (&blob, "zero-width lines"),
            (&hostile, "unsupported version"),
        ] {
            for result in [
                plugin.decode(bytes).map(|_| ()),
                plugin.decode_into(bytes, &mut []).map(|_| ()),
                plugin.decode_into(bytes, &mut [F16::ZERO; 4]).map(|_| ()),
            ] {
                let err = result.expect_err(plugin.name());
                assert!(err.to_string().contains(verdict), "{err}");
            }
        }
    }

    /// The 32 bytes that used to kill a decode thread at
    /// `chunks_mut(0)` — `CFLX`, version 1, grid 0, a label, no chunks —
    /// and keys that name no group under a header that is valid, which
    /// the CPU plugin's borrowed view leaves to its decoder.
    #[test]
    fn cosmo_plugins_reject_a_zero_grid_and_keys_out_of_table_range() {
        let mut blob = b"CFLX".to_vec();
        blob.extend_from_slice(&1u32.to_le_bytes());
        blob.extend_from_slice(&[0u8; 4 + 16 + 4]);
        assert_eq!(blob.len(), 32);
        let cpu = CosmoPluginCpu { op: Op::Log1p };
        for result in [
            cpu.decode(&blob).map(|_| ()),
            cpu.decode_into(&blob, &mut []).map(|_| ()),
            cpu.decode_into(&blob, &mut [F16::ZERO; 8]).map(|_| ()),
        ] {
            let err = result.expect_err(cpu.name());
            assert!(err.to_string().contains("zero grid"), "{err}");
        }

        let s = UniverseGenerator::new(CosmoFlowConfig::test_small()).generate(0);
        let enc = cf::encode(&s);
        let chunk = &enc.chunks[0];
        assert_eq!(chunk.key_width, cf::KeyWidth::U16);
        let bytes = enc.to_bytes();
        let want = cpu.decode(&bytes).unwrap();
        let mut out = vec![F16::ONE; want.data.len()];
        for bad in [chunk.table.len() as u16, u16::MAX] {
            for at in [bytes.len() - chunk.keys.len(), bytes.len() - 2] {
                let mut hostile = bytes.clone();
                hostile[at..at + 2].copy_from_slice(&bad.to_le_bytes());
                for result in [
                    cpu.decode(&hostile).map(|_| ()),
                    cpu.decode_into(&hostile, &mut out).map(|_| ()),
                ] {
                    let err = result.expect_err(cpu.name());
                    assert!(err.to_string().contains("key out of table range"), "{err}");
                }
            }
        }
        // And the blob they were made from still decodes, into the slot
        // the failed decodes left dirty.
        assert_eq!(cpu.decode_into(&bytes, &mut out).unwrap(), want.label);
        assert_eq!(out, want.data);
    }

    #[test]
    fn corrupt_bytes_error_cleanly() {
        assert!(CosmoBaseline { op: Op::Log1p }.decode(b"junk").is_err());
        assert!(CosmoGzip { op: Op::Log1p }.decode(b"junk").is_err());
        assert!(CosmoPluginCpu { op: Op::Log1p }.decode(b"junk").is_err());
        assert!(DeepCamBaseline { op: Op::Identity }
            .decode(b"junk")
            .is_err());
        assert!(DeepCamPluginCpu { op: Op::Identity }
            .decode(b"junk")
            .is_err());
    }

    /// An h5lite image whose `data` is f32 `[1, 2^63, 2]` and whose
    /// `label` is u8 `[2^63, 2]`, both empty and under a valid CRC: each
    /// shape's element count wraps to 0 in a `u64`, so unchecked it
    /// would parse as a sample 2^63 lines high with no values, and
    /// decode into an empty slot.
    #[test]
    fn deepcam_baseline_rejects_a_shape_that_overflows() {
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
        let plugin = DeepCamBaseline { op: Op::Identity };
        assert!(plugin.decode_into(SHAPE_OVERFLOW, &mut []).is_err());
        assert!(plugin.decode(SHAPE_OVERFLOW).is_err());
    }
}
