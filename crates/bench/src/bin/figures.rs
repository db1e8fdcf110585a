//! Regenerates every table and figure of the paper's evaluation.
//!
//! ```text
//! figures -- <target> [--full]
//!
//! targets: table1 fig4 fig5 fig6 fig7 fig8 fig9 fig10 fig11 fig12
//!          errors ratios scaling all
//! ```
//!
//! `--full` uses paper-scale sample sizes (128³ CosmoFlow grids,
//! 1152×768×16 DeepCAM images) where the default uses reduced sizes for
//! quick runs. Throughput figures (8–12) come from the platform model
//! and are size-independent. A target prints to stdout only, and prints
//! the same bytes on every run: `results/figures/<target>.txt`, and
//! `results/figures/<target>_full.txt` for `--full`, is its committed
//! output, which `scripts/ci.sh` regenerates and holds to the tree.

use sciml_bench::convergence::{cosmoflow_convergence, deepcam_convergence, ConvergenceConfig};
use sciml_codec::cosmoflow as cf;
use sciml_codec::deepcam as dc;
use sciml_codec::ops::OpCounter;
use sciml_codec::{ErrorStats, Op};
use sciml_data::cosmoflow::{sample_stats, CosmoFlowConfig, UniverseGenerator};
use sciml_data::deepcam::{ClimateGenerator, DeepCamConfig};
use sciml_data::serialize;
use sciml_half::slice::widen;
use sciml_platform::figures as pfig;
use sciml_platform::gpusim::{self, GpuSpec};
use sciml_platform::{scaling, Format, PlatformSpec, WorkloadProfile};

/// A target's name and its run; `true` asks for paper scale.
type Target = (&'static str, fn(bool));

/// Every target, in `all`'s order.
const TARGETS: &[Target] = &[
    ("table1", |_| table1()),
    ("fig4", |_| fig4()),
    ("fig5", fig5),
    ("fig6", fig6),
    ("fig7", fig7),
    ("fig8", |_| fig8()),
    ("fig9", |_| fig9()),
    ("fig10", |_| fig10()),
    ("fig11", |_| fig11()),
    ("fig12", |_| fig12()),
    ("errors", errors),
    ("ratios", ratios),
    ("scaling", |_| scaling_sweep()),
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let full = args.iter().any(|a| a == "--full");
    let rest: Vec<&str> = args
        .iter()
        .map(String::as_str)
        .filter(|a| *a != "--full")
        .collect();
    let runs: Vec<fn(bool)> = match rest[..] {
        ["all"] => TARGETS.iter().map(|t| t.1).collect(),
        [name] => TARGETS
            .iter()
            .filter(|t| t.0 == name)
            .map(|t| t.1)
            .collect(),
        _ => Vec::new(),
    };
    if runs.is_empty() {
        let names: Vec<&str> = TARGETS.iter().map(|t| t.0).collect();
        eprintln!(
            "usage: figures <target> [--full], not `figures {}`\ntargets: {} all",
            args.join(" "),
            names.join(" ")
        );
        std::process::exit(2);
    }
    for (i, run) in runs.iter().enumerate() {
        if i > 0 {
            println!();
        }
        run(full);
    }
}

fn header(title: &str) {
    println!("=== {title} ===");
}

fn table1() {
    header("Table I: System architecture for evaluated systems");
    print!("{}", pfig::table1());
}

/// Fig. 4: the differential encoding mechanism, illustrated on one line.
fn fig4() {
    header("Fig 4: DeepCAM differential encoding mechanism");
    let cfg = DeepCamConfig {
        width: 96,
        height: 1,
        channels: 1,
        cyclones: 1,
        rivers: 0,
        noise: 2.5e-3,
        seed: 4,
    };
    let s = ClimateGenerator::new(cfg).generate(0);
    let (enc, stats) = dc::encode(&s, &dc::EncoderConfig::default());
    println!("line of {} f32 values ({} bytes raw)", s.width, s.width * 4);
    println!(
        "encoded payload: {} bytes (ratio {:.2}x)",
        enc.payload.len(),
        (s.width * 4) as f64 / enc.payload.len() as f64
    );
    println!(
        "segments: {}  escape literals: {}  zero-delta codes: {}",
        stats.segments, stats.literals, stats.zero_codes
    );
    println!("code layout: [sign:1][exp_off:3][mantissa:4], escape=0xFF, zero=0x00");
    let out = dc::decode(&enc, Op::Identity).expect("decode");
    let mut es = ErrorStats::new(1.0);
    es.record_slices(&widen(&out), &s.data);
    println!(
        "reconstruction: max rel err {:.4}, mean abs err {:.6}",
        es.max_rel_error,
        es.mean_abs_error()
    );
}

/// Fig. 5: CosmoFlow sample statistics (power law, unique values/groups).
fn fig5(full: bool) {
    header("Fig 5: CosmoFlow sample content statistics");
    let grid = if full { 128 } else { 64 };
    let cfg = CosmoFlowConfig {
        grid,
        ..CosmoFlowConfig::default()
    };
    let g = UniverseGenerator::new(cfg);
    let n_samples = if full { 16 } else { 8 };

    // (a) value frequency distribution of one sample (power-law shape).
    let s0 = g.generate(0);
    let st0 = sample_stats(&s0);
    println!(
        "(a) value-frequency distribution, sample 0 (top 15 of {}):",
        st0.unique_values
    );
    println!("{:>8} {:>12}", "value", "frequency");
    for (v, f) in st0.value_frequencies.iter().take(15) {
        println!("{v:>8} {f:>12}");
    }
    let (top_f, mid_f) = (
        st0.value_frequencies[0].1 as f64,
        st0.value_frequencies[st0.value_frequencies.len() / 2].1 as f64,
    );
    println!(
        "head/median frequency ratio: {:.0} (heavy tail)",
        top_f / mid_f
    );

    // (b) unique values across samples.
    println!("\n(b) unique values per sample:");
    let mut group_rows = Vec::new();
    for i in 0..n_samples {
        let s = g.generate(i);
        let st = sample_stats(&s);
        println!("  sample {i:>2}: {:>6} unique values", st.unique_values);
        group_rows.push((i, st.unique_values, st.unique_groups));
    }

    // (c) unique groups vs the permutation bound.
    println!("\n(c) unique 4-redshift groups vs permutation bound:");
    println!(
        "{:>7} {:>14} {:>14} {:>16}",
        "sample", "unique values", "unique groups", "perm bound"
    );
    for (i, uv, ug) in group_rows {
        println!("{i:>7} {uv:>14} {ug:>14} {:>16.3e}", (uv as f64).powi(4));
    }
    println!("(groups index with 16-bit keys when <= 65536)");
}

/// Fig. 6: DeepCAM loss, base vs decoded samples.
fn fig6(full: bool) {
    header("Fig 6: DeepCAM training loss, base vs decoded (lossy codec)");
    let cfg = if full {
        ConvergenceConfig {
            n_samples: 96,
            size: 24,
            epochs: 10,
            batch: 2,
            lr: 2e-3,
        }
    } else {
        ConvergenceConfig::paper_scaled()
    };
    let run = deepcam_convergence(&cfg, 1);
    println!(
        "{:>6} {:>12} {:>12} {:>12} {:>12}",
        "epoch", "base loss", "decoded loss", "base val", "decoded val"
    );
    for e in 0..run.base.epoch_losses.len() {
        println!(
            "{e:>6} {:>12.5} {:>12.5} {:>12.5} {:>12.5}",
            run.base.epoch_losses[e],
            run.decoded.epoch_losses[e],
            run.base.val_losses[e],
            run.decoded.val_losses[e]
        );
    }
    println!(
        "max per-epoch gap: {:.5} ({:.2}% of initial loss)",
        run.max_epoch_gap(),
        100.0 * run.max_epoch_gap() / run.base.epoch_losses[0]
    );
}

/// Fig. 7: CosmoFlow loss across 16 repetitions, base vs decoded.
fn fig7(full: bool) {
    header("Fig 7: CosmoFlow training loss across repetitions");
    let reps = if full { 16 } else { 8 };
    let cfg = if full {
        ConvergenceConfig {
            n_samples: 64,
            size: 16,
            epochs: 10,
            batch: 2,
            lr: 1.5e-3,
        }
    } else {
        ConvergenceConfig::paper_scaled()
    };
    let mut base_runs = Vec::new();
    let mut dec_runs = Vec::new();
    for seed in 0..reps {
        let run = cosmoflow_convergence(&cfg, seed as u64);
        base_runs.push(run.base.epoch_losses);
        dec_runs.push(run.decoded.epoch_losses);
    }
    let summarize = |runs: &[Vec<f32>], e: usize| {
        let vals: Vec<f32> = runs.iter().map(|r| r[e]).collect();
        let mean = vals.iter().sum::<f32>() / vals.len() as f32;
        let min = vals.iter().cloned().fold(f32::MAX, f32::min);
        let max = vals.iter().cloned().fold(f32::MIN, f32::max);
        (mean, min, max)
    };
    println!(
        "{:>6} {:>30} {:>30}",
        "epoch", "base mean [min,max]", "decoded mean [min,max]"
    );
    for e in 0..cfg.epochs {
        let (bm, bl, bh) = summarize(&base_runs, e);
        let (dm, dl, dh) = summarize(&dec_runs, e);
        println!("{e:>6} {bm:>12.5} [{bl:.5},{bh:.5}] {dm:>12.5} [{dl:.5},{dh:.5}]");
    }
    let (bm, _, _) = summarize(&base_runs, cfg.epochs - 1);
    let (dm, _, _) = summarize(&dec_runs, cfg.epochs - 1);
    println!("final-epoch mean: base {bm:.5}, decoded {dm:.5}");
}

fn print_throughput(rows: &[pfig::ThroughputRow]) {
    println!(
        "{:<10} {:<6} {:<9} {:>5} {:<11} {:>12} {:<10}",
        "platform", "set", "staging", "batch", "variant", "samples/s", "tier"
    );
    for r in rows {
        println!(
            "{:<10} {:<6} {:<9} {:>5} {:<11} {:>12.1} {:<10}",
            r.platform,
            r.dataset,
            if r.staged { "staged" } else { "unstaged" },
            r.batch,
            r.format.label(),
            r.node_throughput,
            r.tier
        );
    }
}

fn speedup_summary(rows: &[pfig::ThroughputRow], base: Format, plugin: Format) {
    for platform in ["Summit", "Cori-V100", "Cori-A100"] {
        let mut best = 0.0f64;
        for r in rows
            .iter()
            .filter(|r| r.platform == platform && r.format == plugin)
        {
            if let Some(b) = rows.iter().find(|b| {
                b.platform == r.platform
                    && b.dataset == r.dataset
                    && b.staged == r.staged
                    && b.batch == r.batch
                    && b.format == base
            }) {
                best = best.max(r.node_throughput / b.node_throughput);
            }
        }
        println!(
            "  max {}/{} speedup on {platform}: {best:.2}x",
            plugin.label(),
            base.label()
        );
    }
}

fn fig8() {
    header("Fig 8: DeepCAM node throughput (samples/s)");
    let rows = pfig::fig8();
    print_throughput(&rows);
    speedup_summary(&rows, Format::Base, Format::PluginCpu);
    speedup_summary(&rows, Format::Base, Format::PluginGpu);
}

fn print_breakdown(rows: &[pfig::BreakdownRow]) {
    println!(
        "{:<10} {:<11} {:>9} {:>9} {:>9} {:>10} {:>9} {:>10} {:>7}",
        "platform",
        "variant",
        "read ms",
        "host ms",
        "h2d ms",
        "gpudec ms",
        "step ms",
        "allred ms",
        "bound"
    );
    for r in rows {
        let b = &r.breakdown;
        println!(
            "{:<10} {:<11} {:>9.2} {:>9.2} {:>9.2} {:>10.3} {:>9.2} {:>10.2} {:>7}",
            r.platform,
            r.format.label(),
            b.read_s * 1e3,
            b.host_s * 1e3,
            b.h2d_s * 1e3,
            b.gpu_decode_s * 1e3,
            b.step_s * 1e3,
            b.allreduce_s * 1e3,
            if b.input_bound() { "input" } else { "gpu" }
        );
    }
}

/// The `gpusim` decode kernel's time on one paper-scale sample (seed 0,
/// sample 0) beside the model's GPU decode bar, one line per GPU. The
/// bar stays the paper's measured share (`gpu_decode_v100_s`); the
/// simulator counts cycles, so its times are the same on every host.
fn gpu_decode_beside_model(
    sample: &str,
    workload: &WorkloadProfile,
    kernel: impl Fn(&GpuSpec) -> f64,
) {
    println!("\nGPU decode of one paper-scale {sample}: gpusim kernel vs the model's bar");
    println!(
        "{:<6} {:>14} {:>12} {:>10}",
        "gpu", "simulated us", "model us", "model/sim"
    );
    for gpu in [GpuSpec::V100, GpuSpec::A100] {
        let (sim, model) = (kernel(&gpu), workload.gpu_decode_s(&gpu));
        println!(
            "{:<6} {:>14.1} {:>12.1} {:>9.2}x",
            gpu.name,
            sim * 1e6,
            model * 1e6,
            model / sim
        );
    }
}

fn fig9() {
    header("Fig 9: DeepCAM time breakdown (small set, batch 4)");
    print_breakdown(&pfig::fig9());
    let s = ClimateGenerator::new(DeepCamConfig::default()).generate(0);
    let (enc, _) = dc::encode(&s, &dc::EncoderConfig::default());
    let sample = format!("DeepCAM sample ({}x{}x{})", s.channels, s.height, s.width);
    gpu_decode_beside_model(&sample, &WorkloadProfile::deepcam(), |gpu| {
        gpusim::decode_deepcam(gpu, &enc.view(), Op::Identity)
            .expect("decode")
            .2
    });
}

fn fig10() {
    header("Fig 10: CosmoFlow node throughput, small set (128 samples/GPU)");
    let rows = pfig::fig10();
    print_throughput(&rows);
    speedup_summary(&rows, Format::Base, Format::PluginGpu);
    speedup_summary(&rows, Format::Gzip, Format::Base);
}

fn fig11() {
    header("Fig 11: CosmoFlow node throughput, large set (2048 samples/GPU)");
    let rows = pfig::fig11();
    print_throughput(&rows);
    speedup_summary(&rows, Format::Base, Format::PluginGpu);
}

fn fig12() {
    header("Fig 12: CosmoFlow time breakdown (small set, batch 4)");
    print_breakdown(&pfig::fig12());
    let s = UniverseGenerator::new(CosmoFlowConfig::default()).generate(0);
    let enc = cf::encode(&s);
    let sample = format!("CosmoFlow sample (grid {}, log1p)", s.grid);
    gpu_decode_beside_model(&sample, &WorkloadProfile::cosmoflow(), |gpu| {
        gpusim::decode_cosmo(gpu, &enc.view(), Op::Log1p)
            .expect("decode")
            .2
    });
}

/// Extension: multi-node scaling sweep (beyond the paper's single-node
/// figures; the mechanism §IX-A describes — per-node shard size depends
/// on node count — becomes a caching cliff at scale).
fn scaling_sweep() {
    header("Extension: multi-node scaling (CosmoFlow full dataset, Cori-V100)");
    let nodes = [1u32, 2, 4, 8, 16, 32, 64, 128, 256];
    println!(
        "{:>6} {:>14} {:>12} {:>14} {:>12} {:>10}",
        "nodes", "samples/node", "variant", "global s/s", "efficiency", "tier"
    );
    for format in [Format::Base, Format::PluginGpu] {
        let pts = scaling::scale(
            &PlatformSpec::cori_v100(),
            &WorkloadProfile::cosmoflow(),
            format,
            512 * 1024,
            true,
            4,
            scaling::Interconnect::EDR,
            &nodes,
        );
        for p in pts {
            println!(
                "{:>6} {:>14} {:>12} {:>14.0} {:>12.2} {:>10}",
                p.nodes,
                p.samples_per_node,
                format.label(),
                p.global_throughput,
                p.efficiency,
                p.tier
            );
        }
    }
}

/// §V-A error statistics of the lossy DeepCAM codec, and the share above
/// 10 % error and the ratio across a sweep of the escape tolerance.
fn errors(full: bool) {
    header("DeepCAM lossy-codec error statistics (paper: ~3% above 10% error)");
    let cfg = if full {
        DeepCamConfig::default()
    } else {
        DeepCamConfig {
            width: 384,
            height: 256,
            channels: 8,
            ..DeepCamConfig::default()
        }
    };
    let g = ClimateGenerator::new(cfg);
    let n = if full { 4 } else { 8 };
    let default = dc::EncoderConfig::default();
    let mut tols = vec![0.005, 0.02, 0.05, 0.1];
    // The block below reads the default, so a default off these points
    // joins the sweep (and moves the committed output) rather than panics.
    if !tols.contains(&default.escape_rel_tol) {
        tols.push(default.escape_rel_tol);
        tols.sort_by(f32::total_cmp);
    }
    // One run a tolerance: (its error stats, its encoded bytes).
    let mut runs = vec![(ErrorStats::new(1.0), 0usize); tols.len()];
    let mut raw_bytes = 0;
    for i in 0..n {
        let s = g.generate(i);
        raw_bytes += s.raw_f32_bytes();
        for (&escape_rel_tol, (stats, bytes)) in tols.iter().zip(&mut runs) {
            let cfg = dc::EncoderConfig {
                escape_rel_tol,
                ..default
            };
            let (enc, _) = dc::encode(&s, &cfg);
            *bytes += enc.encoded_bytes();
            let out = dc::decode(&enc, Op::Identity).expect("decode");
            stats.record_slices(&widen(&out), &s.data);
        }
    }
    let at_default = tols.iter().position(|&t| t == default.escape_rel_tol);
    let stats = &runs[at_default.expect("default tolerance is swept")].0;
    println!("values compared: {}", stats.total);
    println!(
        "fraction with rel err > 10%: {:.3}%",
        100.0 * stats.frac_above_10pct()
    );
    println!(
        "of those, near-zero references: {:.1}%",
        100.0 * stats.small_value_share()
    );
    println!(
        "error histogram buckets {:?}:",
        sciml_codec::error_stats::BUCKETS
    );
    println!("{:?}", stats.buckets);

    println!("\nescape-tolerance sweep (EncoderConfig::escape_rel_tol):");
    println!("{:>9} {:>12} {:>8}", "tolerance", "> 10% share", "ratio");
    for (tol, (stats, bytes)) in tols.iter().zip(&runs) {
        println!(
            "{tol:>9} {:>11.3}% {:>8.3}{}",
            100.0 * stats.frac_above_10pct(),
            raw_bytes as f64 / *bytes as f64,
            if *tol == default.escape_rel_tol {
                "  (default)"
            } else {
                ""
            }
        );
    }
}

/// §V-B compression ratios measured on the synthetic datasets, plus the
/// operator-fusion work reduction.
fn ratios(full: bool) {
    header("Compression ratios & fused-operator work reduction");
    let grid = if full { 128 } else { 64 };
    let g = UniverseGenerator::new(CosmoFlowConfig {
        grid,
        ..CosmoFlowConfig::default()
    });
    let s = g.generate(0);
    let raw = serialize::cosmo_to_payload(&s);
    let gz = sciml_compress::gzip_compress(&raw, sciml_compress::Level::Default);
    let enc = cf::encode(&s);
    println!("CosmoFlow sample (grid {grid}):");
    println!("  raw f32 payload: {:>12} bytes", raw.len());
    println!(
        "  gzip:            {:>12} bytes (ratio {:.2}x)   [paper: ~5x]",
        gz.len(),
        raw.len() as f64 / gz.len() as f64
    );
    println!(
        "  custom encoding: {:>12} bytes (ratio {:.2}x)   [paper: ~4x]",
        enc.encoded_bytes(),
        raw.len() as f64 / enc.encoded_bytes() as f64
    );
    println!(
        "  unique groups: {} across {} chunks",
        enc.total_groups(),
        enc.chunks.len()
    );
    let fused = OpCounter::new();
    cf::decode_with_counter(&enc, Op::Log1p, &fused).expect("decode");
    let base = OpCounter::new();
    cf::baseline_preprocess_with_counter(&s, Op::Log1p, &base);
    println!(
        "  log1p applications: baseline {} vs fused {} ({:.0}x reduction)",
        base.count(),
        fused.count(),
        base.count() as f64 / fused.count() as f64
    );

    let cam_cfg = if full {
        DeepCamConfig::default()
    } else {
        DeepCamConfig {
            width: 384,
            height: 256,
            channels: 8,
            ..DeepCamConfig::default()
        }
    };
    let cam = ClimateGenerator::new(cam_cfg).generate(0);
    let (enc, st) = dc::encode(&cam, &dc::EncoderConfig::default());
    println!(
        "\nDeepCAM sample ({}x{}x{}):",
        cam.channels, cam.height, cam.width
    );
    println!("  raw f32: {:>12} bytes", cam.raw_f32_bytes());
    println!(
        "  encoded: {:>12} bytes (ratio {:.2}x)",
        enc.encoded_bytes(),
        enc.compression_ratio()
    );
    println!(
        "  lines: {} constant, {} delta, {} raw; {} segments, {} literals",
        st.constant_lines, st.delta_lines, st.raw_lines, st.segments, st.literals
    );
}
