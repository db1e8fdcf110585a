//! SIMT-simulator benchmarks: wall cost of simulating the decode
//! kernels, plus the simulated device times they report (printed once).

use criterion::{criterion_group, criterion_main, Criterion};
use sciml_bench::{bench_cosmo_sample, bench_deepcam_sample};
use sciml_codec::{cosmoflow as cf, deepcam as dc, Op};
use sciml_gpusim::{decode_cosmo, decode_deepcam, Gpu, GpuSpec};

fn bench(c: &mut Criterion) {
    let cosmo = cf::encode(&bench_cosmo_sample());
    let (cam, _) = dc::encode(&bench_deepcam_sample(), &dc::EncoderConfig::default());

    for spec in [GpuSpec::V100, GpuSpec::A100] {
        let gpu = Gpu::new(spec);
        let (_, _, t_cosmo) = decode_cosmo(&gpu, &cosmo.view(), Op::Log1p).unwrap();
        let (_, _, t_cam) = decode_deepcam(&gpu, &cam.view(), Op::Identity).unwrap();
        println!(
            "simulated {} decode: cosmoflow {:.1}us, deepcam {:.1}us",
            spec.name,
            t_cosmo * 1e6,
            t_cam * 1e6
        );
    }

    let gpu = Gpu::new(GpuSpec::V100);
    let mut g = c.benchmark_group("gpusim");
    g.sample_size(10);
    g.bench_function("simulate_cosmo_decode", |b| {
        b.iter(|| decode_cosmo(&gpu, &cosmo.view(), Op::Log1p).unwrap())
    });
    g.bench_function("simulate_deepcam_decode", |b| {
        b.iter(|| decode_deepcam(&gpu, &cam.view(), Op::Identity).unwrap())
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
