//! CosmoFlow codec benchmarks: encode, fused decode vs per-voxel
//! baseline preprocessing (the §V-B ablation), lossless count decode.
//! These are the microbenchmark ground truth behind Figs. 10–12's host
//! decode costs.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use sciml_bench::bench_cosmo_sample;
use sciml_codec::cosmoflow as cf;
use sciml_codec::Op;
use sciml_half::F16;

fn bench(c: &mut Criterion) {
    let sample = bench_cosmo_sample();
    let encoded = cf::encode(&sample);
    let raw_bytes = sample.raw_f32_bytes() as u64;

    let mut g = c.benchmark_group("cosmoflow_codec");
    g.throughput(Throughput::Bytes(raw_bytes));
    g.sample_size(10);

    g.bench_function("encode", |b| b.iter(|| cf::encode(&sample)));

    // The paper's comparison: fused table decode vs per-voxel op.
    g.bench_function("decode_fused_log1p", |b| {
        b.iter(|| cf::decode(&encoded, Op::Log1p).unwrap())
    });
    // What the pipeline's plugin does per sample: wire bytes, borrowed,
    // into a recycled tensor slot.
    let wire = encoded.to_bytes();
    let mut slot = vec![F16::ZERO; sample.counts.len()];
    g.bench_function("decode_from_wire", |b| {
        b.iter(|| {
            let view = cf::CosmoView::parse(&wire).unwrap();
            cf::decode_view_into(&view, Op::Log1p, &mut slot).unwrap()
        })
    });
    g.bench_function("baseline_per_voxel_log1p", |b| {
        b.iter(|| cf::baseline_preprocess(&sample, Op::Log1p))
    });
    g.bench_function("decode_counts_lossless", |b| {
        b.iter(|| cf::decode_counts(&encoded).unwrap())
    });

    for op in [Op::Identity, Op::Log1p] {
        g.bench_with_input(
            BenchmarkId::new("decode_op", format!("{op:?}")),
            &op,
            |b, &op| b.iter(|| cf::decode(&encoded, op).unwrap()),
        );
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
