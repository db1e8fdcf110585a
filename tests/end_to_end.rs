//! End-to-end integration tests spanning the whole stack:
//! generate → serialize → store → load → decode → train.

use sciml_bench::dataset::{DatasetBuilder, EncodedFormat};
use sciml_codec::Op;
use sciml_data::cosmoflow::CosmoFlowConfig;
use sciml_data::deepcam::DeepCamConfig;
use sciml_pipeline::batch::Label;
use sciml_pipeline::source::{DirSource, MemoryCacheSource, VecSource};
use sciml_pipeline::{Pipeline, PipelineConfig};
use std::sync::Arc;

fn cosmo_builder() -> DatasetBuilder {
    let mut cfg = CosmoFlowConfig::test_small();
    cfg.grid = 16;
    cfg.halos = 8;
    DatasetBuilder::cosmoflow(cfg)
}

#[test]
fn all_cosmo_variants_deliver_identical_tensors() {
    let b = cosmo_builder();
    let n = 6;
    let mut per_variant: Vec<Vec<(usize, Vec<sciml_half::F16>)>> = Vec::new();
    for format in [
        EncodedFormat::Base,
        EncodedFormat::Gzip,
        EncodedFormat::Custom,
    ] {
        let blobs = b.build(n, format);
        let plugin = b.plugin(format, Op::Log1p);
        let p = Pipeline::launch(
            Arc::new(VecSource::new(blobs)),
            plugin,
            PipelineConfig {
                batch_size: 2,
                epochs: 1,
                seed: 9,
                ..Default::default()
            },
        )
        .unwrap();
        let (batches, _) = p.collect_all().unwrap();
        let mut samples: Vec<(usize, Vec<sciml_half::F16>)> = batches
            .iter()
            .flat_map(|batch| {
                batch
                    .indices
                    .iter()
                    .enumerate()
                    .map(|(i, &idx)| (idx, batch.sample(i).to_vec()))
                    .collect::<Vec<_>>()
            })
            .collect();
        samples.sort_by_key(|(idx, _)| *idx);
        let indices: Vec<usize> = samples.iter().map(|(idx, _)| *idx).collect();
        assert_eq!(
            indices,
            (0..n).collect::<Vec<_>>(),
            "{format:?}: each sample once"
        );
        per_variant.push(samples);
    }
    // Every variant must produce bit-identical FP16 tensors per sample.
    for v in &per_variant[1..] {
        assert_eq!(v, &per_variant[0]);
    }
}

#[test]
fn deepcam_masks_survive_the_full_path() {
    let cfg = DeepCamConfig::test_small();
    let gen = sciml_data::deepcam::ClimateGenerator::new(cfg.clone());
    let expected: Vec<Vec<u8>> = (0..4).map(|i| gen.generate(i).mask).collect();

    let b = DatasetBuilder::deepcam(cfg);
    let blobs = b.build(4, EncodedFormat::Custom);
    let plugin = b.plugin(EncodedFormat::Custom, Op::Identity);
    let p = Pipeline::launch(
        Arc::new(VecSource::new(blobs)),
        plugin,
        PipelineConfig {
            batch_size: 2,
            epochs: 1,
            ..Default::default()
        },
    )
    .unwrap();
    let (batches, _) = p.collect_all().unwrap();
    for batch in batches {
        for (i, &idx) in batch.indices.iter().enumerate() {
            match &batch.labels[i] {
                Label::Mask(m) => assert_eq!(m, &expected[idx], "sample {idx}"),
                other => panic!("expected mask label, got {other:?}"),
            }
        }
    }
}

#[test]
fn pipeline_reads_from_disk_directory_source() {
    let b = cosmo_builder();
    let blobs = b.build(5, EncodedFormat::Custom);
    let dir = std::env::temp_dir().join(format!("sciml_e2e_{}", std::process::id()));
    let src = DirSource::write_all(&dir, &blobs).unwrap();
    let p = Pipeline::launch(
        Arc::new(src),
        b.plugin(EncodedFormat::Custom, Op::Log1p),
        PipelineConfig {
            batch_size: 2,
            epochs: 2,
            ..Default::default()
        },
    )
    .unwrap();
    let (batches, stats) = p.collect_all().unwrap();
    assert_eq!(batches.iter().map(|x| x.len()).sum::<usize>(), 10);
    assert!(stats.byte_count() > 0);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn staged_source_serves_second_epoch_from_cache() {
    let b = cosmo_builder();
    let blobs = b.build(4, EncodedFormat::Custom);
    let staged = Arc::new(MemoryCacheSource::new(VecSource::new(blobs), u64::MAX));
    let staged_ref = Arc::clone(&staged);
    let p = Pipeline::launch(
        staged,
        b.plugin(EncodedFormat::Custom, Op::Log1p),
        PipelineConfig {
            batch_size: 2,
            epochs: 3,
            ..Default::default()
        },
    )
    .unwrap();
    let (batches, _) = p.collect_all().unwrap();
    assert_eq!(batches.iter().map(|x| x.len()).sum::<usize>(), 12);
    assert_eq!(staged_ref.misses(), 4, "first epoch fills the cache");
    assert_eq!(staged_ref.hits(), 8, "later epochs hit it");
}

#[test]
fn train_on_pipeline_output_end_to_end() {
    // Decode through the pipeline, then train the miniature regressor on
    // the delivered FP16 batches: the full consumer path.
    use sciml_minidnn::loss::mse;
    use sciml_minidnn::models::cosmoflow_mini;
    use sciml_minidnn::optim::Sgd;
    use sciml_minidnn::train::{TrainConfig, Trainer};
    use sciml_minidnn::Tensor;

    let b = cosmo_builder();
    let blobs = b.build(8, EncodedFormat::Custom);
    let plugin = b.plugin(EncodedFormat::Custom, Op::Log1p);
    // A constant rate: no warmup.
    let schedule = TrainConfig {
        base_lr: 1e-3,
        warmup_steps: 0,
    };
    let mut trainer = Trainer::new(cosmoflow_mini(16, 0), Sgd::new(1e-3, 0.9), schedule);
    for _epoch in 0..3 {
        let p = Pipeline::launch(
            Arc::new(VecSource::new(blobs.clone())),
            Arc::clone(&plugin),
            PipelineConfig {
                batch_size: 2,
                epochs: 1,
                ..Default::default()
            },
        )
        .unwrap();
        let (batches, _) = p.collect_all().unwrap();
        for batch in &batches {
            let data: Vec<f32> = batch.data.iter().map(|h| h.to_f32()).collect();
            let x = Tensor::from_vec(&[batch.len(), 4, 16, 16, 16], data);
            let y = Tensor::from_vec(
                &[batch.len(), 4],
                batch
                    .labels
                    .iter()
                    .flat_map(|l| match l {
                        Label::Cosmo(v) => v.to_vec(),
                        _ => panic!("wrong label type"),
                    })
                    .collect(),
            );
            trainer.step(&x, |pred| mse(pred, &y));
        }
        trainer.end_epoch(None);
    }
    let losses = &trainer.history.epoch_losses;
    assert!(trainer.history.final_loss() < losses[0], "{losses:?}");
}
