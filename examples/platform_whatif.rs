//! What-if exploration with the platform model: the paper frames its
//! staging/batching sweeps as "exploration of architectural
//! configurations outside the studied systems" (§IX-A). This example
//! evaluates the three real platforms, then a hypothetical system with
//! NVLink-class host links *and* A100 GPUs.
//!
//! ```text
//! cargo run --release --example platform_whatif
//! ```

use sciml_platform::{
    BandwidthCurve, EpochModel, ExperimentConfig, Format, PlatformSpec, WorkloadProfile,
};

fn eval(p: &PlatformSpec, fmt: Format, samples: u64, staged: bool) -> f64 {
    EpochModel::evaluate(&ExperimentConfig {
        platform: p.clone(),
        workload: WorkloadProfile::cosmoflow(),
        format: fmt,
        samples_per_node: samples,
        staged,
        batch: 4,
    })
    .node_throughput
}

fn main() {
    println!("CosmoFlow node throughput (samples/s), large set, staged, batch 4\n");
    println!(
        "{:<22} {:>10} {:>10} {:>12} {:>9}",
        "platform", "base", "gzip", "gpu-plugin", "speedup"
    );

    let mut platforms = PlatformSpec::all();

    // Hypothetical: Cori-A100 chassis with Summit-class NVLink host
    // links and a doubled shared-FS allocation.
    let mut dream = PlatformSpec::cori_a100();
    dream.name = "A100+NVLink (what-if)";
    dream.h2d = BandwidthCurve::from_mb_gbs(&[(4.0, 14.0), (16.0, 22.0), (64.0, 30.0)]);
    dream.shared_fs_bw = 4.0e9;
    platforms.push(dream);

    for p in &platforms {
        let samples = 2048 * p.gpus_per_node as u64;
        let base = eval(p, Format::Base, samples, true);
        let gzip = eval(p, Format::Gzip, samples, true);
        let plugin = eval(p, Format::PluginGpu, samples, true);
        println!(
            "{:<22} {base:>10.0} {gzip:>10.0} {plugin:>12.0} {:>8.1}x",
            p.name,
            plugin / base
        );
    }

    println!("\nBatch-size sweep on Cori-A100 (small set, staged):");
    println!("{:>7} {:>10} {:>12}", "batch", "base", "gpu-plugin");
    let a100 = PlatformSpec::cori_a100();
    for batch in [1usize, 2, 4, 8] {
        let cfgf = |fmt| {
            EpochModel::evaluate(&ExperimentConfig {
                platform: a100.clone(),
                workload: WorkloadProfile::cosmoflow(),
                format: fmt,
                samples_per_node: 128 * 8,
                staged: true,
                batch,
            })
            .node_throughput
        };
        println!(
            "{batch:>7} {:>10.0} {:>12.0}",
            cfgf(Format::Base),
            cfgf(Format::PluginGpu)
        );
    }

    println!("\nStorage-tier effect on DeepCAM (base format, batch 4):");
    let w = WorkloadProfile::deepcam();
    for p in PlatformSpec::all() {
        for (label, samples, staged) in [
            ("small/staged", 1536u64, true),
            ("large/staged", 12288, true),
            ("large/unstaged", 12288, false),
        ] {
            let r = EpochModel::evaluate(&ExperimentConfig {
                platform: p.clone(),
                workload: w.clone(),
                format: Format::Base,
                samples_per_node: samples,
                staged,
                batch: 4,
            });
            println!(
                "  {:<10} {label:<15} -> {:>7.1} samples/s (reads from {})",
                p.name,
                r.node_throughput,
                r.tier.label()
            );
        }
    }
}
