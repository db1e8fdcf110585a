//! Ablations of the design choices DESIGN.md calls out.
//!
//! * DeepCAM escape tolerance: ratio vs. error-tail trade-off (the knob
//!   behind the paper's "≈3 % above 10 % error" operating point);
//! * LZ77 effort levels in the gzip baseline (compression CPU cost);
//! * CosmoFlow decode with and without operator fusion on the *hot*
//!   path (per-voxel op after expansion vs. table-fused).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sciml_bench::{bench_cosmo_sample, bench_deepcam_sample};
use sciml_codec::cosmoflow as cf;
use sciml_codec::deepcam as dc;
use sciml_codec::{ErrorStats, Op};
use sciml_compress::{deflate_compress, Level};
use sciml_data::serialize;
use sciml_half::slice::widen;

fn escape_tolerance_ablation(c: &mut Criterion) {
    let sample = bench_deepcam_sample();
    // Report the static trade-off once (criterion measures the encode
    // cost per tolerance below).
    println!("\nDeepCAM escape-tolerance ablation:");
    println!(
        "{:>10} {:>10} {:>14} {:>12}",
        "tolerance", "ratio", ">10% err frac", "literals"
    );
    for tol in [0.005f32, 0.02, 0.05, 0.2] {
        let cfg = dc::EncoderConfig {
            escape_rel_tol: tol,
            ..dc::EncoderConfig::default()
        };
        let (enc, stats) = dc::encode(&sample, &cfg);
        let out = widen(&dc::decode(&enc, Op::Identity).unwrap());
        let mut err = ErrorStats::new(1.0);
        err.record_slices(&out, &sample.data);
        println!(
            "{tol:>10} {:>10.3} {:>14.5} {:>12}",
            enc.compression_ratio(),
            err.frac_above_10pct(),
            stats.literals
        );
    }

    let mut g = c.benchmark_group("ablation_escape_tolerance");
    g.sample_size(10);
    for tol in [0.005f32, 0.05] {
        let cfg = dc::EncoderConfig {
            escape_rel_tol: tol,
            ..dc::EncoderConfig::default()
        };
        g.bench_with_input(BenchmarkId::from_parameter(tol), &cfg, |b, cfg| {
            b.iter(|| dc::encode(&sample, cfg))
        });
    }
    g.finish();
}

fn lz77_level_ablation(c: &mut Criterion) {
    let payload = serialize::cosmo_to_payload(&bench_cosmo_sample());
    println!("\ngzip effort-level ablation (CosmoFlow payload):");
    for (label, level) in [
        ("fastest", Level::Fastest),
        ("fast", Level::Fast),
        ("default", Level::Default),
        ("best", Level::Best),
    ] {
        let out = deflate_compress(&payload, level);
        println!(
            "  {label:<8} -> {} bytes ({:.2}x)",
            out.len(),
            payload.len() as f64 / out.len() as f64
        );
    }
    let mut g = c.benchmark_group("ablation_lz77_level");
    g.sample_size(10);
    for (label, level) in [("fast", Level::Fast), ("best", Level::Best)] {
        g.bench_with_input(BenchmarkId::from_parameter(label), &level, |b, &lv| {
            b.iter(|| deflate_compress(&payload, lv))
        });
    }
    g.finish();
}

fn fusion_ablation(c: &mut Criterion) {
    let sample = bench_cosmo_sample();
    let enc = cf::encode(&sample);
    let mut g = c.benchmark_group("ablation_op_fusion");
    g.sample_size(10);
    // Fused: op on unique values, then gather.
    g.bench_function("fused_log1p", |b| {
        b.iter(|| cf::decode(&enc, Op::Log1p).unwrap())
    });
    // Unfused: expand first, then per-voxel op — the order the paper's
    // reordering optimization eliminates.
    g.bench_function("unfused_log1p", |b| {
        b.iter(|| {
            let raw = cf::decode(&enc, Op::Identity).unwrap();
            raw.iter()
                .map(|h| sciml_half::F16::from_f32(sciml_codec::ops::log1p(h.to_f32())))
                .collect::<Vec<_>>()
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    escape_tolerance_ablation,
    lz77_level_ablation,
    fusion_ablation
);
criterion_main!(benches);
