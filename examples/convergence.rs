//! Convergence preservation (Figs. 6–7): train the miniature CosmoFlow
//! and DeepCAM models on FP32 baseline inputs versus FP16 decoded inputs
//! and compare loss curves.
//!
//! ```text
//! cargo run --release --example convergence
//! ```

use sciml_bench::convergence::{cosmoflow_convergence, deepcam_convergence, ConvergenceConfig};

fn main() {
    let cfg = ConvergenceConfig::paper_scaled();

    println!("DeepCAM (lossy differential codec), {} epochs:", cfg.epochs);
    let run = deepcam_convergence(&cfg, 1);
    println!("{:>6} {:>12} {:>12}", "epoch", "base", "decoded");
    for (e, (b, d)) in run
        .base
        .epoch_losses
        .iter()
        .zip(&run.decoded.epoch_losses)
        .enumerate()
    {
        println!("{e:>6} {b:>12.5} {d:>12.5}");
    }
    println!(
        "max gap: {:.5} ({:.2}% of initial loss)\n",
        run.max_epoch_gap(),
        100.0 * run.max_epoch_gap() / run.base.epoch_losses[0]
    );

    println!("CosmoFlow (lossless LUT codec), 4 seeds:");
    println!("{:>6} {:>12} {:>12}", "seed", "base final", "decoded final");
    for seed in 0..4 {
        let run = cosmoflow_convergence(&cfg, seed);
        println!(
            "{seed:>6} {:>12.5} {:>12.5}",
            run.base.final_loss(),
            run.decoded.final_loss()
        );
    }
    println!("\nDecoded FP16 samples preserve the convergence behaviour of the");
    println!("FP32 baseline under an identical learning schedule (paper §VIII).");
}
