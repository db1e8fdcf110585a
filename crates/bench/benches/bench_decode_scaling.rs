//! Honest thread-scaling decode bench: each decode kernel × each SIMD
//! tier this host supports × 1..N independent decode threads.
//!
//! "Honest" means thread-level parallelism over whole decodes (one
//! sample per thread, no rayon inside), wall-clock measured from a
//! barrier release to the last thread's finish — so the reported
//! per-thread efficiency includes every real effect (shared LLC,
//! memory bandwidth, SMT) instead of an extrapolated single-core
//! number. Emits `BENCH_decode_scaling.json` with per-thread
//! throughput, scaling efficiency, the single-thread speedup of each
//! vector tier over scalar, and the ISA the dispatcher actually chose.

use sciml_bench::snapshot::write_snapshot;
use sciml_bench::{bench_cosmo_sample, bench_deepcam_sample};
use sciml_codec::{cosmoflow, deepcam, Op};
use sciml_half::slice::{narrow_into, widen_into};
use sciml_half::F16;
use sciml_obs::BenchEntry;
use sciml_simd::{detected_level, force, supported_levels, SimdLevel};
use std::sync::Barrier;
use std::time::Instant;

/// Timed decode repetitions per thread (plus untimed warmup).
const ITERS: u32 = 16;
const WARMUP: u32 = 2;

fn max_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .max(2)
}

/// Total elements/second across `t` lockstep threads, each running the
/// worker returned by `make` for [`ITERS`] iterations.
fn throughput<W, F>(t: usize, elems_per_iter: usize, make: F) -> f64
where
    W: FnMut() + Send,
    F: Fn() -> W + Sync,
{
    let barrier = Barrier::new(t + 1);
    // Wall clock = the slowest thread's span from barrier release to
    // its own finish (each thread stamps its own clock right after the
    // release, so a descheduled coordinator can't shrink the measured
    // window).
    let mut secs = 0.0f64;
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..t)
            .map(|_| {
                s.spawn(|| {
                    let mut work = make();
                    for _ in 0..WARMUP {
                        work();
                    }
                    barrier.wait();
                    let t0 = Instant::now();
                    for _ in 0..ITERS {
                        work();
                    }
                    t0.elapsed()
                })
            })
            .collect();
        barrier.wait();
        for h in handles {
            let d = h.join().expect("bench thread panicked");
            secs = secs.max(d.as_secs_f64());
        }
    });
    (t as f64 * ITERS as f64 * elems_per_iter as f64) / secs
}

/// Sweeps one kernel across `tiers` × thread counts, appending entries
/// and printing a compact table.
fn sweep<W, F>(
    name: &str,
    tiers: &[SimdLevel],
    elems_per_iter: usize,
    make: F,
    entries: &mut Vec<BenchEntry>,
) where
    W: FnMut() + Send,
    F: Fn() -> W + Sync,
{
    let threads = max_threads();
    let mut scalar_t1 = 0.0f64;
    for &lvl in tiers {
        let _guard = force(Some(lvl));
        let mut t1 = 0.0f64;
        for t in 1..=threads {
            let thr = throughput(t, elems_per_iter, &make);
            if t == 1 {
                t1 = thr;
                if lvl == SimdLevel::Scalar {
                    scalar_t1 = thr;
                }
            }
            let eff = thr / (t as f64 * t1);
            entries.push(BenchEntry::new(
                format!("{name}_{}_t{t}_melems_s", lvl.name()),
                thr / 1e6,
                "Melems/s",
            ));
            entries.push(BenchEntry::new(
                format!("{name}_{}_t{t}_efficiency", lvl.name()),
                eff,
                "x",
            ));
            println!(
                "{name:<13} {:<7} t{t}: {:>8.1} Melems/s  (efficiency {:.2})",
                lvl.name(),
                thr / 1e6,
                eff
            );
        }
        if lvl != SimdLevel::Scalar && scalar_t1 > 0.0 {
            let speedup = t1 / scalar_t1;
            entries.push(BenchEntry::new(
                format!("{name}_{}_speedup_vs_scalar", lvl.name()),
                speedup,
                "x",
            ));
            println!(
                "{name:<13} {:<7} single-thread speedup vs scalar: {speedup:.2}x",
                lvl.name()
            );
        }
    }
}

fn main() {
    let chosen = detected_level();
    println!(
        "decode scaling bench — detected tier {}, {} hardware threads, tiers {:?}",
        chosen.name(),
        max_threads(),
        supported_levels()
            .iter()
            .map(|l| l.name())
            .collect::<Vec<_>>()
    );
    let mut entries = Vec::new();
    entries.push(BenchEntry::new(
        "chosen_isa_index",
        chosen.index() as f64,
        chosen.name(),
    ));
    entries.push(BenchEntry::new("threads_swept", max_threads() as f64, "n"));

    // CosmoFlow: dense-LUT gather decode (key stream -> 4 channel planes).
    let cosmo = cosmoflow::encode(&bench_cosmo_sample());
    let cosmo_elems = cosmoflow::decode(&cosmo, Op::Identity)
        .expect("cosmo decode")
        .len();
    let tiers = supported_levels();
    sweep(
        "cosmo_decode",
        &tiers,
        cosmo_elems,
        || {
            let enc = &cosmo;
            let mut out = vec![F16::ZERO; cosmo_elems];
            move || {
                cosmoflow::decode_into(enc, Op::Identity, &mut out).expect("cosmo decode");
                std::hint::black_box(&mut out);
            }
        },
        &mut entries,
    );

    // DeepCAM: differential decode (codes -> prefix sums -> F16), sixteen
    // lines in lockstep at avx2, line by line at the other tiers.
    let (dcam, _) = deepcam::encode(&bench_deepcam_sample(), &deepcam::EncoderConfig::default());
    let dcam_elems = dcam.n_values();
    sweep(
        "deepcam_decode",
        &tiers,
        dcam_elems,
        || {
            let enc = &dcam;
            let mut out = vec![F16::ZERO; dcam_elems];
            move || {
                deepcam::decode_into(enc, Op::Identity, &mut out).expect("deepcam decode");
                std::hint::black_box(&mut out);
            }
        },
        &mut entries,
    );

    // Bulk F32<->F16: one narrow + one widen pass per iteration.
    let half_elems = 1 << 20;
    let src: Vec<f32> = (0..half_elems).map(|i| (i as f32).sin() * 1000.0).collect();
    sweep(
        "half_convert",
        &tiers,
        2 * half_elems,
        || {
            let src = &src;
            let mut mid = vec![F16::ZERO; half_elems];
            let mut back = vec![0.0f32; half_elems];
            move || {
                narrow_into(src, &mut mid);
                widen_into(&mid, &mut back);
                std::hint::black_box(&mut back);
            }
        },
        &mut entries,
    );

    // The baseline's per-voxel pass: widen counts, bulk `log1p`, narrow.
    let sample = bench_cosmo_sample();
    sweep(
        "baseline_op",
        &tiers,
        sample.counts.len(),
        || {
            let sample = &sample;
            let mut out = vec![F16::ZERO; sample.counts.len()];
            move || {
                cosmoflow::baseline_preprocess_into(sample, Op::Log1p, &mut out)
                    .expect("baseline preprocess");
                std::hint::black_box(&mut out);
            }
        },
        &mut entries,
    );

    let path = write_snapshot("decode_scaling", &entries).expect("write snapshot");
    println!("snapshot written to {}", path.display());
}
