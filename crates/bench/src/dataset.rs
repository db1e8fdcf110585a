//! Synthetic datasets encoded in any of the paper's on-disk formats,
//! and the decoder plugin that reads each one.

use sciml_codec::cosmoflow as cf;
use sciml_codec::deepcam as dc;
use sciml_codec::Op;
use sciml_data::cosmoflow::{CosmoFlowConfig, UniverseGenerator};
use sciml_data::deepcam::{ClimateGenerator, DeepCamConfig};
use sciml_data::serialize;
use sciml_pipeline::decoder::{
    CosmoBaseline, CosmoGzip, CosmoPluginCpu, DeepCamBaseline, DeepCamGzip, DeepCamPluginCpu,
};
use sciml_pipeline::DecoderPlugin;
use std::sync::Arc;

/// On-disk sample format (the four pipeline variants of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EncodedFormat {
    /// Uncompressed FP32 baseline layout.
    Base,
    /// gzip-compressed baseline layout.
    Gzip,
    /// The custom domain-specific encoding (the CPU plugin's input).
    Custom,
}

/// Which workload a dataset belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// CosmoFlow universes.
    CosmoFlow,
    /// DeepCAM climate samples.
    DeepCam,
}

/// Generates synthetic datasets and encodes them in any format.
#[derive(Debug, Clone)]
pub struct DatasetBuilder {
    workload: Workload,
    cosmo_cfg: CosmoFlowConfig,
    cam_cfg: DeepCamConfig,
}

impl DatasetBuilder {
    /// Builder for CosmoFlow data with the given generator config.
    pub fn cosmoflow(cfg: CosmoFlowConfig) -> Self {
        Self {
            workload: Workload::CosmoFlow,
            cosmo_cfg: cfg,
            cam_cfg: DeepCamConfig::test_small(),
        }
    }

    /// Builder for DeepCAM data with the given generator config.
    pub fn deepcam(cfg: DeepCamConfig) -> Self {
        Self {
            workload: Workload::DeepCam,
            cosmo_cfg: CosmoFlowConfig::test_small(),
            cam_cfg: cfg,
        }
    }

    /// Workload of this builder.
    pub fn workload(&self) -> Workload {
        self.workload
    }

    /// Generates `n` samples encoded in `format`, one byte blob each.
    pub fn build(&self, n: usize, format: EncodedFormat) -> Vec<Vec<u8>> {
        match self.workload {
            Workload::CosmoFlow => {
                let g = UniverseGenerator::new(self.cosmo_cfg.clone());
                (0..n as u64)
                    .map(|i| {
                        let s = g.generate(i);
                        match format {
                            EncodedFormat::Base => serialize::cosmo_to_payload(&s),
                            EncodedFormat::Gzip => {
                                CosmoGzip::compress_payload(&serialize::cosmo_to_payload(&s))
                            }
                            EncodedFormat::Custom => cf::encode(&s).to_bytes(),
                        }
                    })
                    .collect()
            }
            Workload::DeepCam => {
                let g = ClimateGenerator::new(self.cam_cfg.clone());
                (0..n as u64)
                    .map(|i| {
                        let s = g.generate(i);
                        match format {
                            EncodedFormat::Base => {
                                serialize::deepcam_to_h5(&s).expect("serialize deepcam")
                            }
                            EncodedFormat::Gzip => sciml_compress::gzip_compress(
                                &serialize::deepcam_to_h5(&s).expect("serialize deepcam"),
                                sciml_compress::Level::Default,
                            ),
                            EncodedFormat::Custom => {
                                dc::encode(&s, &dc::EncoderConfig::default()).0.to_bytes()
                            }
                        }
                    })
                    .collect()
            }
        }
    }

    /// The decoder plugin that reads `format`.
    pub fn plugin(&self, format: EncodedFormat, op: Op) -> Arc<dyn DecoderPlugin> {
        match (self.workload, format) {
            (Workload::CosmoFlow, EncodedFormat::Base) => Arc::new(CosmoBaseline { op }),
            (Workload::CosmoFlow, EncodedFormat::Gzip) => Arc::new(CosmoGzip { op }),
            (Workload::CosmoFlow, EncodedFormat::Custom) => Arc::new(CosmoPluginCpu { op }),
            (Workload::DeepCam, EncodedFormat::Base) => Arc::new(DeepCamBaseline { op }),
            (Workload::DeepCam, EncodedFormat::Gzip) => Arc::new(DeepCamGzip { op }),
            (Workload::DeepCam, EncodedFormat::Custom) => Arc::new(DeepCamPluginCpu { op }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cosmo_dataset_builds_in_all_formats_and_decodes() {
        let b = DatasetBuilder::cosmoflow(CosmoFlowConfig::test_small());
        for format in [
            EncodedFormat::Base,
            EncodedFormat::Gzip,
            EncodedFormat::Custom,
        ] {
            let blobs = b.build(2, format);
            assert_eq!(blobs.len(), 2);
            let plugin = b.plugin(format, Op::Log1p);
            let d = plugin.decode(&blobs[0]).unwrap();
            assert_eq!(d.data.len(), 32 * 32 * 32 * 4);
        }
    }

    #[test]
    fn custom_format_is_smallest() {
        let b = DatasetBuilder::cosmoflow(CosmoFlowConfig::test_small());
        let base = b.build(1, EncodedFormat::Base);
        let custom = b.build(1, EncodedFormat::Custom);
        assert!(custom[0].len() * 3 < base[0].len());
    }

    #[test]
    fn deepcam_plugin_through_builder() {
        let b = DatasetBuilder::deepcam(DeepCamConfig::test_small());
        let blobs = b.build(1, EncodedFormat::Custom);
        let plugin = b.plugin(EncodedFormat::Custom, Op::Identity);
        let d = plugin.decode(&blobs[0]).unwrap();
        assert_eq!(d.data.len(), 144 * 96 * 4);
    }
}
