//! Smoke tests for the figure-regeneration paths: every series the
//! `figures` binary prints must be producible and carry the paper's
//! headline shapes, and EXPERIMENTS.md's headline numbers must be the
//! ones the committed outputs under `results/figures/` print.

use sciml_platform::figures as pfig;
use sciml_platform::Format;
use std::path::Path;

#[test]
fn every_throughput_figure_is_complete_and_positive() {
    for rows in [pfig::fig8(), pfig::fig10(), pfig::fig11()] {
        assert!(!rows.is_empty());
        for r in &rows {
            assert!(r.node_throughput.is_finite() && r.node_throughput > 0.0);
        }
    }
}

#[test]
fn breakdown_figures_are_complete() {
    for rows in [pfig::fig9(), pfig::fig12()] {
        assert!(!rows.is_empty());
        for r in &rows {
            let b = &r.breakdown;
            for v in [
                b.read_s,
                b.host_s,
                b.h2d_s,
                b.gpu_decode_s,
                b.step_s,
                b.allreduce_s,
            ] {
                assert!(v.is_finite() && v >= 0.0);
            }
        }
    }
}

#[test]
fn headline_speedups_hold() {
    // "speedups of up to 3× and 10× for DeepCAM and CosmoFlow" (§I).
    let best = |rows: &[pfig::ThroughputRow], plugin: Format| -> f64 {
        let mut best = 0.0f64;
        for r in rows.iter().filter(|r| r.format == plugin) {
            if let Some(b) = rows.iter().find(|b| {
                b.platform == r.platform
                    && b.dataset == r.dataset
                    && b.staged == r.staged
                    && b.batch == r.batch
                    && b.format == Format::Base
            }) {
                best = best.max(r.node_throughput / b.node_throughput);
            }
        }
        best
    };
    let deepcam = best(&pfig::fig8(), Format::PluginGpu);
    assert!(
        (2.0..5.0).contains(&deepcam),
        "DeepCAM best speedup {deepcam}"
    );
    let mut cosmo_rows = pfig::fig10();
    cosmo_rows.extend(pfig::fig11());
    let cosmo = best(&cosmo_rows, Format::PluginGpu);
    assert!(cosmo >= 8.0, "CosmoFlow best speedup {cosmo}");
}

#[test]
fn table1_renders() {
    let t = pfig::table1();
    assert!(t.lines().count() >= 10);
}

/// Every row of EXPERIMENTS.md's summary table names the
/// `results/figures/` file it quotes, and each backticked span of its
/// Reproduction column is printed in that file. ci.sh's figures stage
/// holds the files to the code; this holds the table to the files.
#[test]
fn summary_table_quotes_its_figure_files() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let doc = std::fs::read_to_string(root.join("EXPERIMENTS.md")).expect("EXPERIMENTS.md");
    let section = doc
        .split("## Summary of the headline claims")
        .nth(1)
        .expect("EXPERIMENTS.md has a summary section");
    let rows: Vec<&str> = section
        .lines()
        .skip_while(|l| !l.starts_with('|'))
        .take_while(|l| l.starts_with('|'))
        .skip(2) // the header and its rule
        .collect();
    assert!(rows.len() >= 6, "summary table has {} rows", rows.len());
    let backticked = |cell: &str| -> Vec<String> {
        cell.split('`')
            .skip(1)
            .step_by(2)
            .map(String::from)
            .collect()
    };
    for row in rows {
        // | claim | reproduction | file | status |
        let cells: Vec<&str> = row.split('|').collect();
        assert_eq!(cells.len(), 6, "{row}");
        let (quotes, file) = (backticked(cells[2]), backticked(cells[3]));
        assert!(
            file.len() == 1 && file[0].starts_with("results/figures/"),
            "row names no results/figures/ file: {row}"
        );
        let printed = std::fs::read_to_string(root.join(&file[0]))
            .unwrap_or_else(|e| panic!("{}: {e}", file[0]));
        assert!(!quotes.is_empty(), "row quotes no number: {row}");
        for q in quotes {
            assert!(
                printed.contains(&q),
                "EXPERIMENTS.md quotes `{q}`, which {} does not print",
                file[0]
            );
        }
    }
}

/// Below fig9's and fig12's breakdowns, the model's GPU decode bar
/// stands in the same ratio to the simulated kernel at the A100 as at
/// the V100: the model scales its V100 anchor as the simulator scales
/// the kernel.
#[test]
fn the_gpu_decode_bar_keeps_its_ratio_to_the_simulator_on_both_gpus() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    for file in ["results/figures/fig9.txt", "results/figures/fig12.txt"] {
        let printed = std::fs::read_to_string(root.join(file)).expect(file);
        let ratio = |gpu: &str| {
            printed
                .lines()
                .find(|l| l.starts_with(gpu) && l.ends_with('x'))
                .and_then(|l| l.split_whitespace().last())
                .unwrap_or_else(|| panic!("{file} prints no {gpu} model/sim line"))
                .to_string()
        };
        assert_eq!(ratio("V100 "), ratio("A100 "), "{file}");
    }
}
