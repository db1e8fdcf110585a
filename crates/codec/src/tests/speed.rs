//! The crate's speed floors: each gain a refactor could lose without
//! failing any other test, one table timed by `sciml_simd::speed` (each
//! side on the loader's threads at once, the median of side-by-side
//! timings) at the host's tier. Release only: `cargo test --release -p
//! sciml-codec --lib -- --ignored --exact speed::speed_floors
//! --nocapture`.
//!
//! * DeepCAM encode on the ingest workload's 288×192×8, the channels one
//!   after the other as the frozen reference runs them: 3.5x. The gain
//!   rests on sixteen chains in flight with the tolerance test off them;
//!   the line-at-a-time encoder it replaced read 2.8x.
//! * DeepCAM decode on 576×384×8 against the per-line loop: 1.2x at
//!   avx2, where sixteen lines step their prefix chains together with the
//!   code→delta step off them (skipped elsewhere: there the two are one
//!   loop). It read 1.24–1.59x over forty runs; how it moves with the
//!   host is in EXPERIMENTS.md ("DeepCAM host decode").
//! * The same decode against the frozen two-pass reference: 3x. A second
//!   pass over the line, or a mispredicting loop in it, reads 2x.
//! * CosmoFlow encode on the benchmark's 64³ sample: 3x the frozen
//!   `HashMap` encoder.
//! * CosmoFlow wire bytes to tensor through the view against the frozen
//!   owned parse + decode: 1.7x. What the view saves is outside the
//!   gather; a max-scan the compiler left scalar read 1.2–1.4x.
//! * `Op::Log1p.narrow_into` against the per-element loop on 2²⁰ counts:
//!   5x where sse4.2 or better runs. It is one safe loop the compiler
//!   vectorises once per tier; below sse4.2 the scalar F16 conversion is
//!   most of the call.

use crate::cosmoflow::{self, CosmoView};
use crate::deepcam::{self, EncoderConfig};
use crate::ops::log1p;
use crate::Op;
use sciml_data::cosmoflow::{CosmoFlowConfig, UniverseGenerator};
use sciml_data::deepcam::{ClimateGenerator, DeepCamConfig};
use sciml_half::F16;
use sciml_simd::speed::{floors, with, Row, Shape};
use sciml_simd::{active_level, SimdLevel};
use std::hint::black_box;

#[test]
#[ignore = "timing; release mode, run by scripts/ci.sh"]
fn speed_floors() {
    let cfg = EncoderConfig::default();
    let ingest = ClimateGenerator::new(DeepCamConfig {
        width: 288,
        height: 192,
        channels: 8,
        seed: 20220530,
        ..DeepCamConfig::default()
    })
    .generate(0);
    let (dc, _) = deepcam::encode(
        &ClimateGenerator::new(DeepCamConfig {
            width: 576,
            height: 384,
            channels: 8,
            ..DeepCamConfig::default()
        })
        .generate(0),
        &cfg,
    );
    let dc_out = || vec![F16::ZERO; dc.n_values()];
    let cosmo = UniverseGenerator::new(CosmoFlowConfig {
        grid: 64,
        ..CosmoFlowConfig::default()
    })
    .generate(0);
    let cosmo_bytes = cosmoflow::encode(&cosmo).to_bytes();
    let cosmo_out = || vec![F16::ZERO; cosmo.counts.len()];
    let counts: Vec<f32> = (0..1 << 20).map(|i| (i * 7919 % 65536) as f32).collect();
    let counts_out = || (counts.clone(), vec![F16::ZERO; counts.len()]);
    let tier = active_level();

    let rows: [Row; 6] = [
        (
            "deepcam encode 288x192x8: lockstep / frozen reference",
            3.5,
            true,
            &|| {
                for c in 0..ingest.channels {
                    black_box(deepcam::encode_channel(black_box(&ingest), c, &cfg));
                }
            },
            &|| {
                drop(black_box(deepcam::reference::encode(
                    black_box(&ingest),
                    &cfg,
                )))
            },
        ),
        (
            "deepcam decode 576x384x8: lockstep / per-line loop",
            1.2,
            tier == SimdLevel::Avx2,
            &with(dc_out, |out| {
                deepcam::decode_into(&dc, Op::Identity, out).unwrap()
            }),
            &with(dc_out, |out| {
                let view = dc.view();
                for (idx, line) in out.chunks_mut(view.width as usize).enumerate() {
                    deepcam::decode_line_into(&view, idx, Op::Identity, line).unwrap();
                }
            }),
        ),
        (
            "deepcam decode 576x384x8: shipped / frozen two-pass",
            3.0,
            true,
            &with(dc_out, |out| {
                deepcam::decode_into(&dc, Op::Identity, out).unwrap()
            }),
            &with(dc_out, |out| {
                deepcam::reference_decode::decode_into(&dc, Op::Identity, out).unwrap()
            }),
        ),
        (
            "cosmo encode 64^3: flat table / frozen HashMap",
            3.0,
            true,
            &|| drop(black_box(cosmoflow::encode(black_box(&cosmo)))),
            &|| {
                drop(black_box(cosmoflow::reference_encode::encode(black_box(
                    &cosmo,
                ))))
            },
        ),
        (
            "cosmo wire bytes -> tensor 64^3, log1p: view / frozen owned parse",
            1.7,
            true,
            &with(cosmo_out, |out| {
                let view = CosmoView::parse(black_box(&cosmo_bytes)).unwrap();
                cosmoflow::decode_view_into(&view, Op::Log1p, out).unwrap();
            }),
            &with(cosmo_out, |out| {
                let enc = cosmoflow::reference_decode::from_bytes(black_box(&cosmo_bytes)).unwrap();
                cosmoflow::reference_decode::decode_into(&enc, Op::Log1p, None, out).unwrap();
            }),
        ),
        (
            "Op::Log1p.narrow_into 2^20 counts: bulk / per-element",
            5.0,
            matches!(tier, SimdLevel::Sse42 | SimdLevel::Avx2),
            &with(counts_out, |(vals, out)| {
                vals.copy_from_slice(&counts);
                Op::Log1p.narrow_into(vals, out);
                black_box(out);
            }),
            // `black_box` on each argument keeps the optimiser from
            // merging the iterations into the very loop under test.
            &with(counts_out, |(_, out)| {
                for (o, &x) in out.iter_mut().zip(&counts) {
                    *o = F16::from_f32(log1p(black_box(x)));
                }
                black_box(out);
            }),
        ),
    ];
    floors(Shape::Loader, tier.name(), &rows);
}
