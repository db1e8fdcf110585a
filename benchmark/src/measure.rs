//! One run of one workload: set-up, the timed window, and for a traced
//! run the per-layer numbers taken from the spans and the probes.

use crate::json::Value;
use crate::metrics::Measured;
use crate::stats::{percentile, sorted, summarize, tail, Summary};
use crate::trace::{self, Budget, Span};
use crate::workloads::{Host, IngestRound, Kind, Prepared, Res, Round, DEEPCAM_MAX_ERR_FRAC};
use crate::{probes, procstat};
use sciml_serve::StatsSnapshot;
use std::path::Path;
use std::time::Instant;

/// Set-ups per `--trace 0` run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;
/// Stretches of the window CPU time is taken over.
const CPU_STRETCHES: usize = 8;

/// What a run reports besides its metrics.
pub struct Outcome {
    pub measured: Measured,
    pub attempted: u64,
    pub failed: u64,
    /// Why the run is not correct, beyond failed operations.
    pub errors: Vec<String>,
}

impl Outcome {
    fn new() -> Outcome {
        Outcome {
            measured: Measured::default(),
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
        }
    }

    /// Counts a set-up's operations, and checks that its decoded values
    /// are as close to the FP32 originals as the workload's codec
    /// promises: CosmoFlow's is lossless up to the FP16 narrowing,
    /// DeepCAM's keeps the paper's operating point.
    fn count_setup(&mut self, p: &Prepared) {
        self.attempted += p.setup_attempted;
        self.failed += p.setup_failed;
        let accurate = if p.kind.is_cosmo() {
            p.errors.large_error_total == 0
        } else {
            p.errors.frac_above_10pct() <= DEEPCAM_MAX_ERR_FRAC
        };
        if !accurate {
            self.errors.push(format!(
                "{:.4} of the decoded values are more than 10 % off the FP32 original",
                p.errors.frac_above_10pct()
            ));
        }
    }

    fn count_rounds(&mut self, rounds: &[Round]) {
        self.attempted += rounds.iter().map(|r| r.attempted).sum::<u64>();
        self.failed += rounds.iter().map(|r| r.failed).sum::<u64>();
        self.errors
            .extend(rounds.iter().filter_map(|r| r.error.clone()));
    }
}

/// Runs rounds until `seconds` have passed (a round in progress is
/// finished), or until one fails with an error.
fn window(p: &mut Prepared, seconds: f64, traced: bool) -> Vec<Round> {
    let started = Instant::now();
    let mut rounds = Vec::new();
    while started.elapsed().as_secs_f64() < seconds {
        let r = p.round(traced);
        let stop = r.error.is_some();
        rounds.push(r);
        if stop {
            break;
        }
    }
    rounds
}

fn per_round(rounds: &[Round], f: impl Fn(&Round) -> f64) -> Res<Summary> {
    summarize(&rounds.iter().map(f).collect::<Vec<_>>()).ok_or("no round was run".into())
}

/// CPU milliseconds per delivered sample, one value per stretch of the
/// window. `/proc` counts CPU time in 10 ms ticks, too coarse for one
/// round, so consecutive rounds are taken together, [`CPU_STRETCHES`] to
/// a window; the median over stretches then ignores a slow episode the
/// way the median over rounds does for the sample rate.
fn cpu_ms_per_sample(rounds: &[Round]) -> Vec<f64> {
    rounds
        .chunks(rounds.len().div_ceil(CPU_STRETCHES).max(1))
        .filter_map(|stretch| {
            let samples: u64 = stretch.iter().map(|r| r.samples).sum();
            let cpu_s: f64 = stretch.iter().map(|r| r.cpu_s).sum();
            (samples > 0).then(|| cpu_s * 1e3 / samples as f64)
        })
        .collect()
}

/// `--trace 0`: set up [`SETUP_REPEATS`] times, then the timed window
/// with no decorator installed.
pub fn end_to_end(
    kind: Kind,
    seed: u64,
    seconds: f64,
    host: Host,
    scratch: &Path,
    detail: &mut Value,
) -> Res<Outcome> {
    let mut out = Outcome::new();
    let mut setup_s = Vec::new();
    let mut prepared: Option<Prepared> = None;
    for k in 0..SETUP_REPEATS {
        if let Some(previous) = prepared.take() {
            previous.tear_down();
        }
        let t = Instant::now();
        let p = Prepared::set_up(kind, seed, host, &scratch.join(format!("setup_{k}")))?;
        setup_s.push(t.elapsed().as_secs_f64());
        out.count_setup(&p);
        prepared = Some(p);
    }
    let mut p = prepared.expect("SETUP_REPEATS is at least one");
    let rounds = window(&mut p, seconds, false);
    let accuracy = 1.0 - p.errors.frac_above_10pct();
    p.tear_down();
    out.count_rounds(&rounds);

    let samples: u64 = rounds.iter().map(|r| r.samples).sum();
    if samples == 0 {
        return Err(format!(
            "no sample was delivered: {}",
            out.errors.join("; ")
        ));
    }
    let source_bytes: u64 = rounds.iter().map(|r| r.source_bytes).sum();
    let setup = summarize(&setup_s).expect("SETUP_REPEATS is at least one");
    let rate = per_round(&rounds, Round::samples_per_s)?;
    let cpu = summarize(&cpu_ms_per_sample(&rounds)).expect("some round delivered samples");
    // The mean, not the median: a round's peak is a whole number of
    // batch tensors plus small change, so rounds fall into a few
    // clusters, and the median of a run jumps between clusters when
    // their shares shift a little. Slow episodes do not inflate memory,
    // so the mean needs no protection from them.
    let heap_mb = rounds.iter().map(|r| r.peak_heap_bytes as f64 / 1e6);
    let heap_mb = heap_mb.sum::<f64>() / rounds.len() as f64;
    let m = &mut out.measured;
    m.set("setup_s", setup.median);
    m.set("samples_per_s", rate.median);
    m.set("cpu_ms_per_sample", cpu.median);
    m.set("peak_heap_mb", heap_mb);
    m.set("bytes_per_sample", source_bytes as f64 / samples as f64);
    m.set("rel_err_le10_frac", accuracy);

    detail.set("rounds", Value::Num(rounds.len() as f64));
    detail.set("samples_delivered", Value::Num(samples as f64));
    detail.set(
        "quartiles",
        Value::obj()
            .with("setup_s", setup.to_json("s"))
            .with("samples_per_s", rate.to_json("1/s"))
            .with("cpu_ms_per_sample", cpu.to_json("ms")),
    );
    Ok(out)
}

/// `--trace 1`: one set-up, half the window untraced (the rate the
/// tracing overhead is measured against), half with the decorators
/// recording, then the layer probes.
pub fn per_layer(
    kind: Kind,
    seed: u64,
    seconds: f64,
    host: Host,
    scratch: &Path,
    trace_file: &Path,
    detail: &mut Value,
) -> Res<Outcome> {
    let mut out = Outcome::new();
    let mut p = Prepared::set_up(kind, seed, host, &scratch.join("setup"))?;
    let untraced = window(&mut p, seconds / 2.0, false);
    let server_before = p.server().map(|s| s.stats());
    let traced = window(&mut p, seconds / 2.0, true);
    let server_after = p.server().map(|s| s.stats());
    let spans = trace::take();
    out.count_setup(&p);
    out.count_rounds(&untraced);
    out.count_rounds(&traced);

    let m = &mut out.measured;
    let b = trace::budget(&spans, host.reader_threads(kind), host.decode_threads());
    let filled = pipeline_metrics(&spans, &b, &traced, host, kind, m)
        .and_then(|decode_p50_us| probes::run(&p, scratch, decode_p50_us, m));
    if let (Some(before), Some(after)) = (server_before, server_after) {
        let retries = traced.iter().map(|r| r.client_retries).sum();
        serve_metrics(&before, &after, b.fetch_busy_s, retries, m);
    }
    ingest_metrics(&traced, m);
    m.set("codec.rel_err_gt10_frac", p.errors.frac_above_10pct());
    p.tear_down();
    filled?;

    // Counted over the untraced rounds: the recorder allocates too.
    let (allocations, samples) = untraced
        .iter()
        .fold((0, 0), |(a, n), r| (a + r.allocations, n + r.samples));
    m.set(
        "pipeline.allocs_per_sample",
        allocations as f64 / samples.max(1) as f64,
    );
    m.set("host.peak_rss_mb", procstat::peak_rss_mb()?);
    let rate = |rounds: &[Round]| per_round(rounds, Round::samples_per_s).map(|s| s.median);
    m.set(
        "trace.overhead_frac",
        1.0 - rate(&traced)? / rate(&untraced)?,
    );
    m.set("trace.spans", spans.len() as f64);

    // What of each round (of each pipeline run, for the read workloads)
    // the spans inside it do not cover.
    let self_ns = trace::self_times_ns(&spans);
    let round_self_s: f64 = spans
        .iter()
        .filter(|s| s.layer == trace::INGEST_ROUND || s.layer == trace::RUN)
        .map(|s| self_ns[&s.id] as f64 / 1e9)
        .sum();
    detail.set("round_self_time_s", Value::Num(round_self_s));
    detail.set("rounds_untraced", Value::Num(untraced.len() as f64));
    detail.set("rounds_traced", Value::Num(traced.len() as f64));
    detail.set("traced_wall_s", Value::Num(b.wall_s));
    std::fs::write(trace_file, trace::chrome_trace(&spans).to_line())
        .map_err(|e| format!("{}: {e}", trace_file.display()))?;
    Ok(out)
}

/// Median and supported tail of one set of durations, under the four
/// names `<prefix>_calls`, `_p50_<unit>`, `_tail_<unit>`, `_tail_pct`
/// (`calls` is skipped when `None`). Returns the median.
fn set_distribution(m: &mut Measured, names: [Option<&'static str>; 4], values: &[f64]) -> f64 {
    let values = sorted(values);
    let (pct, at_tail) = tail(&values);
    let p50 = percentile(&values, 50.0);
    let [calls, median, tail_value, tail_pct] = names;
    for (name, v) in [
        (calls, values.len() as f64),
        (median, p50),
        (tail_value, at_tail),
        (tail_pct, pct),
    ] {
        if let Some(name) = name {
            m.set(name, v);
        }
    }
    p50
}

/// The budget of the worker threads and what the consumer saw, from the
/// traced rounds. Returns the median decode time in microseconds.
fn pipeline_metrics(
    spans: &[Span],
    b: &Budget,
    traced: &[Round],
    host: Host,
    kind: Kind,
    m: &mut Measured,
) -> Res<f64> {
    let durations_us = |layer: &str| -> Vec<f64> {
        let of_layer = spans.iter().filter(|s| s.layer == layer);
        of_layer.map(|s| s.dur_ns() as f64 / 1e3).collect()
    };
    let (fetch_us, decode_us) = (durations_us(trace::FETCH), durations_us(trace::DECODE));
    if fetch_us.is_empty() || decode_us.is_empty() || b.wall_s == 0.0 {
        return Err("the traced pass recorded no pipeline span".into());
    }
    set_distribution(
        m,
        [
            Some("pipeline.fetch_calls"),
            Some("pipeline.fetch_p50_us"),
            Some("pipeline.fetch_tail_us"),
            Some("pipeline.fetch_tail_pct"),
        ],
        &fetch_us,
    );
    let decode_p50_us = set_distribution(
        m,
        [
            Some("pipeline.decode_calls"),
            Some("pipeline.decode_p50_us"),
            Some("pipeline.decode_tail_us"),
            Some("pipeline.decode_tail_pct"),
        ],
        &decode_us,
    );
    m.set("pipeline.fetch_busy_s", b.fetch_busy_s);
    m.set("pipeline.decode_busy_s", b.decode_busy_s);
    m.set("pipeline.reader_idle_s", b.reader_idle_s);
    m.set("pipeline.decoder_idle_s", b.decoder_idle_s);
    m.set(
        "pipeline.fetch_util",
        b.fetch_busy_s / (b.wall_s * host.reader_threads(kind) as f64),
    );
    m.set(
        "pipeline.decode_util",
        b.decode_busy_s / (b.wall_s * host.decode_threads() as f64),
    );
    m.set(
        "pipeline.unattributed_frac",
        b.unattributed_s / b.thread_wall_s,
    );
    m.set(
        "pipeline.consumer_wait_s",
        traced.iter().map(|r| r.wait_s).sum(),
    );
    let gaps_ms: Vec<f64> = traced
        .iter()
        .flat_map(|r| r.gaps_ms.iter().copied())
        .collect();
    if !gaps_ms.is_empty() {
        set_distribution(
            m,
            [
                None,
                Some("pipeline.batch_gap_p50_ms"),
                Some("pipeline.batch_gap_tail_ms"),
                Some("pipeline.batch_gap_tail_pct"),
            ],
            &gaps_ms,
        );
    }
    let (hits, misses) = traced
        .iter()
        .fold((0, 0), |(h, mi), r| (h + r.pool_hits, mi + r.pool_misses));
    m.set(
        "pipeline.pool_hit_rate",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    m.set(
        "pipeline.first_batch_ms",
        per_round(traced, |r| r.first_batch_ms)?.median,
    );
    Ok(decode_p50_us)
}

/// What the in-process server counted over the traced rounds.
fn serve_metrics(
    before: &StatsSnapshot,
    after: &StatsSnapshot,
    client_fetch_busy_s: f64,
    client_retries: u64,
    m: &mut Measured,
) {
    let hits = after.cache_hits - before.cache_hits;
    let misses = after.cache_misses - before.cache_misses;
    m.set(
        "serve.cache_hit_rate",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    // Bucket-quantised: these two come from the server's own histogram,
    // whose buckets are up to 12.5 % wide, over the server's lifetime.
    m.set(
        "serve.server_request_p50_us",
        after.latency.percentile(0.5) as f64 / 1e3,
    );
    m.set(
        "serve.server_request_p99_us",
        after.latency.percentile(0.99) as f64 / 1e3,
    );
    let server_s = (after.request_ns - before.request_ns) as f64 / 1e9;
    m.set("serve.transport_s", client_fetch_busy_s - server_s);
    m.set(
        "serve.rejected_connections",
        (after.rejected_connections - before.rejected_connections) as f64,
    );
    m.set("serve.client_retries", client_retries as f64);
}

/// Phase times (median over rounds) and staging counters of the traced
/// ingest rounds; nothing on the read workloads.
fn ingest_metrics(traced: &[Round], m: &mut Measured) {
    let ingest: Vec<IngestRound> = traced.iter().filter_map(|r| r.ingest).collect();
    if ingest.is_empty() {
        return;
    }
    let median = |f: fn(&IngestRound) -> f64| {
        summarize(&ingest.iter().map(f).collect::<Vec<_>>()).map_or(0.0, |s| s.median)
    };
    m.set("codec.encode_phase_s", median(|i| i.encode_s));
    m.set("store.pack_phase_s", median(|i| i.pack_s));
    m.set("store.stage_phase_s", median(|i| i.stage_s));
    m.set("store.verify_phase_s", median(|i| i.verify_s));
    let (local, through) = ingest
        .iter()
        .fold((0, 0), |(l, t), i| (l + i.local_hits, t + i.fallthroughs));
    m.set(
        "store.stage_local_hit_rate",
        local as f64 / (local + through).max(1) as f64,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round(samples: u64, cpu_s: f64) -> Round {
        Round {
            samples,
            cpu_s,
            ..Round::default()
        }
    }

    #[test]
    fn cpu_per_sample_is_taken_over_stretches_of_rounds() {
        // 20 rounds make 7 stretches of 3 (the last of 2).
        let rounds: Vec<Round> = (0..20).map(|_| round(10, 0.02)).collect();
        let per = cpu_ms_per_sample(&rounds);
        assert_eq!(per.len(), 7);
        assert!(per.iter().all(|v| (v - 2.0).abs() < 1e-12));
        // Fewer rounds than stretches: one round each.
        assert_eq!(cpu_ms_per_sample(&rounds[..5]).len(), 5);
        // A stretch that delivered nothing has no per-sample cost.
        let mut rounds: Vec<Round> = (0..8).map(|_| round(4, 0.1)).collect();
        rounds[3].samples = 0;
        assert_eq!(cpu_ms_per_sample(&rounds).len(), 7);
        assert!(cpu_ms_per_sample(&[]).is_empty());
    }

    #[test]
    fn distributions_are_reported_under_the_given_names() {
        let mut m = Measured::default();
        let values: Vec<f64> = (1..=200).rev().map(f64::from).collect();
        let p50 = set_distribution(
            &mut m,
            [
                Some("pipeline.fetch_calls"),
                Some("pipeline.fetch_p50_us"),
                Some("pipeline.fetch_tail_us"),
                Some("pipeline.fetch_tail_pct"),
            ],
            &values,
        );
        assert_eq!(p50, 100.0);
        assert_eq!(m.get("pipeline.fetch_calls"), Some(200.0));
        assert_eq!(m.get("pipeline.fetch_p50_us"), Some(100.0));
        assert_eq!(m.get("pipeline.fetch_tail_pct"), Some(95.0));
        assert_eq!(m.get("pipeline.fetch_tail_us"), Some(190.0));
    }
}
