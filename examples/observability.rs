//! Observability demo: run the loading pipeline with the unified
//! telemetry layer enabled, then dump the metrics exposition
//! (Prometheus text, the same read-out a scrape returns) and a Chrome
//! trace-event file with per-stage worker spans.
//!
//! ```text
//! cargo run --example observability -- --trace-out /tmp/trace.json \
//!     --metrics-out /tmp/metrics.prom
//! ```
//!
//! Open the trace in `chrome://tracing` or <https://ui.perfetto.dev>:
//! fetch/decode/batch spans appear on each worker thread's row.

use sciml_bench::dataset::{DatasetBuilder, EncodedFormat};
use sciml_codec::Op;
use sciml_data::cosmoflow::CosmoFlowConfig;
use sciml_obs::{json, parse_prometheus, Telemetry};
use sciml_pipeline::source::VecSource;
use sciml_pipeline::{Pipeline, PipelineConfig};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::sync::Arc;

fn flag(args: &[String], name: &str) -> Option<PathBuf> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(PathBuf::from)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let trace_out = flag(&args, "--trace-out").unwrap_or_else(|| "/tmp/sciml_trace.json".into());
    let metrics_out =
        flag(&args, "--metrics-out").unwrap_or_else(|| "/tmp/sciml_metrics.prom".into());

    // A small encoded dataset and an observed pipeline over it: two
    // reader and two decoder threads, so the trace shows genuinely
    // concurrent workers.
    let builder = DatasetBuilder::cosmoflow(CosmoFlowConfig::test_small());
    let encoded = builder.build(24, EncodedFormat::Custom);
    let plugin = builder.plugin(EncodedFormat::Custom, Op::Log1p);

    let telemetry = Telemetry::new();
    let pipeline = Pipeline::launch_with(
        Arc::new(VecSource::new(encoded)),
        plugin,
        PipelineConfig {
            batch_size: 4,
            reader_threads: 2,
            decode_threads: 2,
            epochs: 2,
            ..Default::default()
        },
        telemetry.clone(),
    )
    .expect("pipeline launch");

    let (batches, stats) = pipeline.collect_all().expect("pipeline run");
    println!(
        "pipeline delivered {} batches ({} samples, {} bytes fetched)",
        batches.len(),
        stats.sample_count(),
        stats.byte_count()
    );

    // Metrics snapshot: every pipeline.* instrument, percentiles included.
    let snap = telemetry.registry.snapshot();
    let decode = snap
        .histogram("pipeline.decode_ns")
        .expect("decode histogram");
    println!(
        "decode latency: {} decodes — p50 {:.1} µs / p95 {:.1} µs / p99 {:.1} µs / max {:.1} µs",
        decode.count,
        decode.percentile(0.50) as f64 / 1e3,
        decode.percentile(0.95) as f64 / 1e3,
        decode.percentile(0.99) as f64 / 1e3,
        decode.max as f64 / 1e3,
    );

    std::fs::write(&metrics_out, telemetry.exposition()).expect("write metrics");
    telemetry.write_trace(&trace_out).expect("write trace");
    println!("metrics: {}", metrics_out.display());
    println!("trace:   {}", trace_out.display());

    // Self-check both files: the exposition must carry the decode
    // histogram's series and the derived families, and the trace must
    // be well-formed JSON with spans from all pipeline stages across at
    // least two worker threads.
    validate_metrics(&metrics_out, decode.count);
    validate_trace(&trace_out);
    println!("validated: trace + metrics are well-formed");
}

fn validate_metrics(path: &Path, decodes: u64) {
    let text = std::fs::read_to_string(path).expect("read metrics");
    let parsed = parse_prometheus(&text).expect("metrics must be a valid exposition");
    assert_eq!(parsed.kind("pipeline_decode_ns"), Some("histogram"));
    let buckets = parsed.samples_named("pipeline_decode_ns_bucket");
    assert!(
        buckets.len() >= 2,
        "decode histogram needs a finite bucket and +Inf"
    );
    let inf = buckets.last().expect("+Inf bucket");
    assert_eq!(inf.le.as_deref(), Some("+Inf"));
    let count = &parsed.samples_named("pipeline_decode_ns_count")[0].value;
    assert_eq!(inf.value, *count, "+Inf bucket equals _count");
    assert_eq!(*count, decodes.to_string());
    let sum: u64 = parsed.samples_named("pipeline_decode_ns_sum")[0]
        .value
        .parse()
        .expect("integer _sum");
    assert!(sum > 0, "decode time was recorded");
    for family in ["obs_trace_dropped_spans", "codec_simd_dispatch_total"] {
        assert_eq!(parsed.kind(family), Some("gauge"), "{family} missing");
    }
}

fn validate_trace(path: &Path) {
    let text = std::fs::read_to_string(path).expect("read trace");
    let doc = json::parse(&text).expect("trace must be valid JSON");
    let events = doc
        .get("traceEvents")
        .and_then(|v| v.as_array())
        .expect("traceEvents array");
    let mut names = BTreeSet::new();
    let mut tids = BTreeSet::new();
    for ev in events {
        if let Some(name) = ev.get("name").and_then(|v| v.as_str()) {
            names.insert(name.to_string());
        }
        if let Some(tid) = ev.get("tid").and_then(|v| v.as_f64()) {
            tids.insert(tid as u64);
        }
    }
    for expected in ["fetch", "decode", "batch"] {
        assert!(names.contains(expected), "trace missing {expected} spans");
    }
    assert!(
        tids.len() >= 2,
        "expected spans from >=2 worker threads, saw {tids:?}"
    );
    println!(
        "trace: {} events, {} distinct threads, span kinds {names:?}",
        events.len(),
        tids.len()
    );
}
