//! High-level dataset building and pipeline construction.

use sciml_codec::cosmoflow as cf;
use sciml_codec::deepcam as dc;
use sciml_codec::Op;
use sciml_data::cosmoflow::{CosmoFlowConfig, UniverseGenerator};
use sciml_data::deepcam::{ClimateGenerator, DeepCamConfig};
use sciml_data::serialize;
use sciml_gpusim::{Gpu, GpuSpec};
use sciml_pipeline::decoder::{
    CosmoBaseline, CosmoGzip, CosmoPluginCpu, CosmoPluginGpu, DeepCamBaseline, DeepCamGzip,
    DeepCamPluginCpu, DeepCamPluginGpu,
};
use sciml_pipeline::source::VecSource;
use sciml_pipeline::{DecoderPlugin, Pipeline, PipelineConfig, SampleSource};
use sciml_store::{ShardPlan, Stager, StagerConfig};
use std::path::Path;
use std::sync::Arc;

/// On-disk sample format (the four pipeline variants of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EncodedFormat {
    /// Uncompressed FP32 baseline layout.
    Base,
    /// gzip-compressed baseline layout.
    Gzip,
    /// The custom domain-specific encoding (used by both plugin modes).
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

    /// The decoder plugin matching a (format, device) combination.
    pub fn plugin(
        &self,
        format: EncodedFormat,
        gpu: Option<GpuSpec>,
        op: Op,
    ) -> Arc<dyn DecoderPlugin> {
        match (self.workload, format, gpu) {
            (Workload::CosmoFlow, EncodedFormat::Base, _) => Arc::new(CosmoBaseline { op }),
            (Workload::CosmoFlow, EncodedFormat::Gzip, _) => Arc::new(CosmoGzip { op }),
            (Workload::CosmoFlow, EncodedFormat::Custom, None) => Arc::new(CosmoPluginCpu { op }),
            (Workload::CosmoFlow, EncodedFormat::Custom, Some(spec)) => {
                Arc::new(CosmoPluginGpu::new(Gpu::new(spec), op))
            }
            (Workload::DeepCam, EncodedFormat::Base, _) => Arc::new(DeepCamBaseline { op }),
            (Workload::DeepCam, EncodedFormat::Gzip, _) => Arc::new(DeepCamGzip { op }),
            (Workload::DeepCam, EncodedFormat::Custom, None) => Arc::new(DeepCamPluginCpu { op }),
            (Workload::DeepCam, EncodedFormat::Custom, Some(spec)) => {
                Arc::new(DeepCamPluginGpu::new(Gpu::new(spec), op))
            }
        }
    }
}

/// Builds and launches a loading pipeline over in-memory encoded samples.
///
/// Batch tensors come from the pipeline's internal
/// [`BufferPool`](sciml_pipeline::BufferPool) (sized by
/// [`PipelineConfig::pool_capacity`]); drop batches when done with them
/// to recycle their buffers.
pub fn build_pipeline(
    samples: Vec<Vec<u8>>,
    plugin: Arc<dyn DecoderPlugin>,
    cfg: PipelineConfig,
) -> sciml_pipeline::Result<Pipeline> {
    Pipeline::launch(Arc::new(VecSource::new(samples)), plugin, cfg)
}

/// [`build_pipeline`] with an explicit telemetry bundle: stage metrics
/// land in `telemetry.registry` and worker spans in `telemetry.tracer`.
pub fn build_pipeline_observed(
    samples: Vec<Vec<u8>>,
    plugin: Arc<dyn DecoderPlugin>,
    cfg: PipelineConfig,
    telemetry: sciml_obs::Telemetry,
) -> sciml_pipeline::Result<Pipeline> {
    Pipeline::launch_with(Arc::new(VecSource::new(samples)), plugin, cfg, telemetry)
}

/// Launches a pipeline over a backing source while a background worker
/// pool stages it into `staging_dir` in shard-sized units.
///
/// The pipeline starts immediately: fetches of already-staged samples
/// are served from the node-local packed copy, the rest fall through to
/// `backing`. Staging survives restarts — a journal in `staging_dir`
/// records completed shards, and a re-run with the same directory and
/// plans resumes instead of re-fetching.
///
/// `plans` partitions the samples into shards; use the server's
/// [`shard_manifest`](sciml_serve::RemoteSource::shard_manifest) for a
/// remote backing source, or
/// [`plan_by_count`](sciml_store::manifest::plan_by_count) for a local
/// one. The returned [`Stager`] owns the background workers: watch
/// [`Stager::progress`], and call [`Stager::stop`] + [`Stager::join`]
/// to wind staging down early.
pub fn build_staged_pipeline(
    backing: Arc<dyn SampleSource>,
    plans: Vec<ShardPlan>,
    staging_dir: impl AsRef<Path>,
    plugin: Arc<dyn DecoderPlugin>,
    cfg: PipelineConfig,
    stager_cfg: StagerConfig,
    telemetry: sciml_obs::Telemetry,
) -> sciml_pipeline::Result<(Pipeline, Stager)> {
    let stager = Stager::with_telemetry(
        backing,
        plans,
        staging_dir.as_ref(),
        stager_cfg,
        telemetry.clone(),
    )?;
    stager.spawn_workers();
    let pipeline = Pipeline::launch_with(Arc::new(stager.source()), plugin, cfg, telemetry)?;
    Ok((pipeline, stager))
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
            let plugin = b.plugin(format, None, Op::Log1p);
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
    fn deepcam_gpu_plugin_through_builder() {
        let b = DatasetBuilder::deepcam(DeepCamConfig::test_small());
        let blobs = b.build(1, EncodedFormat::Custom);
        let plugin = b.plugin(EncodedFormat::Custom, Some(GpuSpec::A100), Op::Identity);
        let d = plugin.decode(&blobs[0]).unwrap();
        assert_eq!(d.data.len(), 144 * 96 * 4);
    }

    #[test]
    fn staged_pipeline_end_to_end() {
        let mut cfg = CosmoFlowConfig::test_small();
        cfg.grid = 8;
        let b = DatasetBuilder::cosmoflow(cfg);
        let blobs = b.build(6, EncodedFormat::Custom);
        let plugin = b.plugin(EncodedFormat::Custom, None, Op::Log1p);
        let dir = std::env::temp_dir().join(format!(
            "sciml_core_staged_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        let telemetry = sciml_obs::Telemetry::new();
        let (p, stager) = build_staged_pipeline(
            Arc::new(VecSource::new(blobs)),
            sciml_store::manifest::plan_by_count(6, 2),
            &dir,
            plugin,
            PipelineConfig {
                batch_size: 2,
                epochs: 1,
                ..Default::default()
            },
            StagerConfig::default(),
            telemetry.clone(),
        )
        .unwrap();
        let (batches, stats) = p.collect_all().unwrap();
        assert_eq!(batches.iter().map(|b| b.len()).sum::<usize>(), 6);
        assert_eq!(stats.sample_count(), 6);
        // Workers drain the three planned shards and exit on their own.
        let progress = stager.join().unwrap();
        assert!(progress.complete(), "staging finished: {progress:?}");
        assert!(dir.join("staging.journal").is_file());
        assert!(dir.join("shard_000000.sshard").is_file());
        let snap = telemetry.registry.snapshot();
        assert_eq!(snap.counter("store.staging.shards_staged"), 3);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn pool_config_and_metrics_flow_through_facade() {
        let mut cfg = CosmoFlowConfig::test_small();
        cfg.grid = 8;
        let b = DatasetBuilder::cosmoflow(cfg);
        let blobs = b.build(6, EncodedFormat::Custom);
        let plugin = b.plugin(EncodedFormat::Custom, None, Op::Log1p);
        let telemetry = sciml_obs::Telemetry::new();
        let mut p = build_pipeline_observed(
            blobs,
            plugin,
            PipelineConfig {
                batch_size: 2,
                epochs: 2,
                pool_capacity: Some(3),
                ..Default::default()
            },
            telemetry.clone(),
        )
        .unwrap();
        assert_eq!(p.pool().capacity(), 3);
        let mut batches = 0;
        while let Some(b) = p.next_batch().unwrap() {
            assert_eq!(b.len(), 2);
            batches += 1; // batch dropped here → tensor returns to pool
        }
        assert_eq!(batches, 6);
        let snap = telemetry.registry.snapshot();
        assert!(snap.counter("pipeline.pool.hits") > 0, "pool never reused");
        assert!(snap.counter("pipeline.pool.misses") > 0);
    }

    #[test]
    fn end_to_end_pipeline_via_facade() {
        let mut cfg = CosmoFlowConfig::test_small();
        cfg.grid = 8;
        let b = DatasetBuilder::cosmoflow(cfg);
        let blobs = b.build(6, EncodedFormat::Custom);
        let plugin = b.plugin(EncodedFormat::Custom, None, Op::Log1p);
        let p = build_pipeline(
            blobs,
            plugin,
            PipelineConfig {
                batch_size: 2,
                epochs: 1,
                ..Default::default()
            },
        )
        .unwrap();
        let (batches, stats) = p.collect_all().unwrap();
        assert_eq!(batches.iter().map(|b| b.len()).sum::<usize>(), 6);
        assert_eq!(stats.sample_count(), 6);
    }
}
