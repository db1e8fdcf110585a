//! Smoke tests for the figure-regeneration paths: every series the
//! `figures` binary prints must be producible and carry the paper's
//! headline shapes.

use sciml_platform::figures as pfig;
use sciml_platform::Format;

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
