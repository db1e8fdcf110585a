//! Multi-node scaling study (extension): sweep node counts for the full
//! CosmoFlow dataset on the Cori-V100 model, then rebuild the workload
//! profile from rates measured on *this* machine and model a localhost
//! "node".
//!
//! ```text
//! cargo run --release --example scaling_study
//! ```

use sciml_platform::calibrate::{calibrated_profile, localhost_spec, measure_cosmoflow_rates};
use sciml_platform::{
    scaling, EpochModel, ExperimentConfig, Format, PlatformSpec, WorkloadProfile,
};

fn main() {
    println!("CosmoFlow full dataset (512Ki samples) across Cori-V100 nodes:\n");
    println!(
        "{:>6} {:>14} {:>12} {:>14} {:>11} {:>10}",
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
            &[1, 8, 32, 128, 512],
        );
        for p in &pts {
            println!(
                "{:>6} {:>14} {:>12} {:>14.0} {:>11.2} {:>10}",
                p.nodes,
                p.samples_per_node,
                format.label(),
                p.global_throughput,
                p.efficiency,
                p.tier
            );
        }
    }

    println!("\nCalibrating host-side rates on this machine (grid 32)...");
    let rates = measure_cosmoflow_rates(32);
    println!(
        "  baseline preprocessing: {:>8.0} MB/s (raw-equivalent, 1 core)",
        rates.preproc_bps / 1e6
    );
    println!(
        "  gzip inflate:           {:>8.0} MB/s",
        rates.inflate_bps / 1e6
    );
    println!(
        "  fused plugin decode:    {:>8.0} MB/s",
        rates.decode_bps / 1e6
    );

    let w = calibrated_profile(&WorkloadProfile::cosmoflow(), rates);
    let host = localhost_spec(
        std::thread::available_parallelism()
            .map(|n| n.get() as u32)
            .unwrap_or(2),
    );
    println!("\nModeled single-GPU 'localhost' node with calibrated host rates:");
    for format in [
        Format::Base,
        Format::Gzip,
        Format::PluginCpu,
        Format::PluginGpu,
    ] {
        let r = EpochModel::evaluate(&ExperimentConfig {
            platform: host.clone(),
            workload: w.clone(),
            format,
            samples_per_node: 128,
            staged: true,
            batch: 4,
        });
        println!(
            "  {:<11} {:>8.1} samples/s  (reads from {})",
            format.label(),
            r.node_throughput,
            r.tier.label()
        );
    }
}
