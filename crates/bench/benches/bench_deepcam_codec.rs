//! DeepCAM differential codec benchmarks: encode, decode of an owned
//! sample, decode straight from wire bytes (parse + decode + mask, the
//! plugin's work per sample), fused normalisation. Ground truth behind
//! Figs. 8–9's host decode costs.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use sciml_bench::bench_deepcam_sample;
use sciml_codec::deepcam as dc;
use sciml_codec::Op;
use sciml_half::F16;

fn bench(c: &mut Criterion) {
    let sample = bench_deepcam_sample();
    let cfg = dc::EncoderConfig::default();
    let (encoded, _) = dc::encode(&sample, &cfg);
    let raw_bytes = sample.raw_f32_bytes() as u64;

    let mut g = c.benchmark_group("deepcam_codec");
    g.throughput(Throughput::Bytes(raw_bytes));
    g.sample_size(10);

    g.bench_function("encode", |b| b.iter(|| dc::encode(&sample, &cfg)));
    g.bench_function("decode_sequential", |b| {
        b.iter(|| dc::decode(&encoded, Op::Identity).unwrap())
    });
    let wire = encoded.to_bytes();
    let mut out = vec![F16::ZERO; encoded.n_values()];
    g.bench_function("decode_from_wire", |b| {
        b.iter(|| {
            let view = dc::DeepCamView::parse(&wire).unwrap();
            dc::decode_view_into(&view, Op::Identity, &mut out).unwrap();
            view.mask.to_vec()
        })
    });
    g.bench_function("decode_fused_normalize", |b| {
        b.iter(|| {
            dc::decode(
                &encoded,
                Op::Normalize {
                    scale: 0.05,
                    offset: 270.0,
                },
            )
            .unwrap()
        })
    });
    g.bench_function("wire_roundtrip", |b| {
        b.iter(|| dc::EncodedDeepCam::from_bytes(&encoded.to_bytes()).unwrap())
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
