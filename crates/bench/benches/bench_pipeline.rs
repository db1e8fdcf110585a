//! End-to-end loader benchmarks: the four pipeline variants measured for
//! real on this host (a miniature, measured analogue of Figs. 10–11).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use sciml_bench::dataset::{DatasetBuilder, EncodedFormat};
use sciml_codec::Op;
use sciml_data::cosmoflow::CosmoFlowConfig;
use sciml_gpusim::GpuSpec;
use sciml_pipeline::source::VecSource;
use sciml_pipeline::{Pipeline, PipelineConfig};
use std::sync::Arc;

fn bench(c: &mut Criterion) {
    let mut gen_cfg = CosmoFlowConfig::test_small();
    gen_cfg.grid = 24;
    let builder = DatasetBuilder::cosmoflow(gen_cfg);
    let n = 16usize;

    let datasets = [
        ("base", EncodedFormat::Base, None),
        ("gzip", EncodedFormat::Gzip, None),
        ("cpu-plugin", EncodedFormat::Custom, None),
        ("gpu-plugin", EncodedFormat::Custom, Some(GpuSpec::V100)),
    ];

    let mut g = c.benchmark_group("pipeline_epoch");
    g.sample_size(10);
    let sample_values = 24u64 * 24 * 24 * 4;
    g.throughput(Throughput::Elements(sample_values * n as u64));
    for (label, format, gpu) in datasets {
        let blobs = builder.build(n, format);
        g.bench_with_input(BenchmarkId::from_parameter(label), &(), |b, _| {
            b.iter(|| {
                let pipeline = Pipeline::launch(
                    Arc::new(VecSource::new(blobs.clone())),
                    builder.plugin(format, gpu, Op::Log1p),
                    PipelineConfig {
                        batch_size: 4,
                        epochs: 1,
                        ..Default::default()
                    },
                )
                .unwrap();
                let (batches, _) = pipeline.collect_all().unwrap();
                assert_eq!(batches.iter().map(|b| b.len()).sum::<usize>(), n);
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
