//! Integration tests for the live telemetry plane: cross-process trace
//! propagation over the serve wire protocol, the Prometheus scrape
//! endpoint, and pipeline bottleneck attribution — each exercised
//! against real TCP sockets and real worker threads, not mocks.

use sciml_half::F16;
use sciml_obs::{
    json, merge_chrome_traces, parse_prometheus, pipeline_stages, PipelineSampler, SamplerConfig,
    Telemetry,
};
use sciml_pipeline::source::VecSource;
use sciml_pipeline::{DecodedSample, DecoderPlugin, Label, Pipeline, PipelineConfig, SampleSource};
use sciml_serve::{scrape_once, spawn_scrape_listener, ClientConfig, RemoteSource, ServeBuilder};
use std::sync::Arc;
use std::time::Duration;

fn blobs(n: usize) -> Vec<Vec<u8>> {
    (0..n).map(|i| vec![(i % 251) as u8; 64]).collect()
}

/// Pulls the hex-string span ids out of a Chrome-trace event's `args`.
fn ids_of(event: &json::Value) -> Option<(String, String, String)> {
    let args = event.get("args")?;
    Some((
        args.get("trace")?.as_str()?.to_string(),
        args.get("span")?.as_str()?.to_string(),
        args.get("parent")?.as_str()?.to_string(),
    ))
}

/// The acceptance path: a traced client fetch against a loopback server
/// produces two Chrome traces that merge into one timeline where the
/// server's spans are children of the client's request span.
#[test]
fn loopback_fetch_merges_into_one_parented_trace() {
    let server_tel = Telemetry::new();
    let server = ServeBuilder::new()
        .dataset("demo", Arc::new(VecSource::new(blobs(6))))
        .telemetry(&server_tel)
        .bind("127.0.0.1:0")
        .expect("bind");
    let client_tel = Telemetry::new();
    let src = RemoteSource::connect_with_registry(
        server.local_addr().to_string(),
        "demo",
        ClientConfig::default(),
        Arc::clone(&client_tel.registry),
    )
    .expect("connect");
    {
        // What the pipeline reader does per sample: a root span whose
        // context the remote source propagates over the wire.
        let _root = client_tel.tracer.span_root("pipeline", "fetch");
        src.fetch_batch(&[0, 1, 2]).expect("fetch");
    }
    server.shutdown();

    let mut client_trace = Vec::new();
    client_tel
        .tracer
        .write_chrome_trace(&mut client_trace)
        .unwrap();
    let mut server_trace = Vec::new();
    server_tel
        .tracer
        .write_chrome_trace(&mut server_trace)
        .unwrap();
    let merged = merge_chrome_traces(&[
        ("client".into(), String::from_utf8(client_trace).unwrap()),
        ("server".into(), String::from_utf8(server_trace).unwrap()),
    ])
    .expect("merge");

    let doc = json::parse(&merged).expect("merged trace is valid JSON");
    let events = doc
        .get("traceEvents")
        .and_then(|v| v.as_array())
        .expect("traceEvents array");

    // Client lane is pid 1, server lane pid 2.
    let client_fetch = events
        .iter()
        .find(|e| {
            e.get("name").and_then(|v| v.as_str()) == Some("fetch")
                && e.get("pid").and_then(|v| v.as_f64()) == Some(1.0)
        })
        .expect("client fetch span in merged trace");
    let (trace_id, fetch_span, fetch_parent) = ids_of(client_fetch).expect("client span ids");
    assert_eq!(fetch_parent, format!("{:016x}", 0), "fetch is the root");

    let server_request = events
        .iter()
        .find(|e| {
            e.get("name").and_then(|v| v.as_str()) == Some("request")
                && e.get("pid").and_then(|v| v.as_f64()) == Some(2.0)
        })
        .expect("server request span in merged trace");
    let (req_trace, req_span, req_parent) = ids_of(server_request).expect("server span ids");
    assert_eq!(req_trace, trace_id, "one trace spans both processes");
    assert_eq!(
        req_parent, fetch_span,
        "request is a child of the client fetch"
    );

    // The server's per-sample fetch spans hang off its request span,
    // still in the same trace.
    let server_fetches: Vec<_> = events
        .iter()
        .filter(|e| {
            e.get("name").and_then(|v| v.as_str()) == Some("fetch")
                && e.get("pid").and_then(|v| v.as_f64()) == Some(2.0)
        })
        .collect();
    assert_eq!(server_fetches.len(), 3, "one server span per sample");
    for f in server_fetches {
        let (t, _, p) = ids_of(f).expect("server fetch ids");
        assert_eq!(t, trace_id);
        assert_eq!(p, req_span);
    }
}

/// A live scrape of a serving process returns parseable Prometheus
/// text exposing the serve.* families with real traffic in them.
#[test]
fn scrape_endpoint_reflects_served_traffic() {
    let tel = Telemetry::disabled();
    let server = ServeBuilder::new()
        .dataset("demo", Arc::new(VecSource::new(blobs(4))))
        .telemetry(&tel)
        .bind("127.0.0.1:0")
        .expect("bind");
    let (scrape_addr, scrape) =
        spawn_scrape_listener("127.0.0.1:0", tel.clone()).expect("bind scrape");

    let src = RemoteSource::connect(server.local_addr().to_string(), "demo").expect("connect");
    src.fetch_batch(&[0, 1]).expect("fetch");

    let body = scrape_once(&scrape_addr.to_string()).expect("scrape");
    let parsed = parse_prometheus(&body).expect("valid exposition");
    assert_eq!(parsed.kind("serve_requests"), Some("counter"));
    let served: u64 = parsed.samples_named("serve_requests")[0]
        .value
        .parse()
        .unwrap();
    assert!(served >= 1, "requests counter moved: {served}");
    assert_eq!(parsed.kind("serve_request_ns"), Some("histogram"));
    assert_eq!(parsed.kind("obs_trace_dropped_spans"), Some("gauge"));

    scrape.shutdown();
    server.shutdown();
}

/// Decoder that burns a fixed wall-clock time per sample.
struct SleepyPlugin {
    delay: Duration,
}

impl DecoderPlugin for SleepyPlugin {
    fn name(&self) -> &'static str {
        "sleepy"
    }

    fn decode(&self, _bytes: &[u8]) -> sciml_pipeline::Result<DecodedSample> {
        std::thread::sleep(self.delay);
        Ok(DecodedSample {
            data: vec![F16::from_f32(0.0); 8],
            label: Label::Cosmo([0.0; 4]),
        })
    }

    fn decode_into(&self, _bytes: &[u8], out: &mut [F16]) -> sciml_pipeline::Result<Label> {
        std::thread::sleep(self.delay);
        out.fill(F16::from_f32(0.0));
        Ok(Label::Cosmo([0.0; 4]))
    }
}

/// Source that burns a fixed wall-clock time per fetch.
struct SleepySource {
    inner: VecSource,
    delay: Duration,
}

impl SampleSource for SleepySource {
    fn len(&self) -> usize {
        self.inner.len()
    }

    fn fetch_into(&self, idx: usize, buf: &mut Vec<u8>) -> sciml_pipeline::Result<()> {
        std::thread::sleep(self.delay);
        self.inner.fetch_into(idx, buf)
    }

    fn bytes_read(&self) -> u64 {
        self.inner.bytes_read()
    }
}

/// Runs a single-reader single-decoder pipeline with the given stage
/// delays under a sampler, returning the final bottleneck name.
fn bottleneck_of(fetch_delay: Duration, decode_delay: Duration) -> String {
    let tel = Telemetry::disabled();
    let cfg = PipelineConfig {
        batch_size: 4,
        reader_threads: 1,
        decode_threads: 1,
        ..PipelineConfig::default()
    };
    // Sampler first so its baseline predates all pipeline work.
    let sampler = PipelineSampler::spawn(
        Arc::clone(&tel.registry),
        Arc::clone(&tel.tracer),
        SamplerConfig {
            interval: Duration::from_millis(20),
            stages: pipeline_stages(1, 1),
            live: false,
        },
    );
    let source = Arc::new(SleepySource {
        inner: VecSource::new(blobs(16)),
        delay: fetch_delay,
    });
    let plugin = Arc::new(SleepyPlugin {
        delay: decode_delay,
    });
    let p = Pipeline::launch_with(source, plugin, cfg, tel.clone()).expect("launch");
    p.collect_all().expect("run");
    sampler.stop().bottleneck
}

/// The attribution acceptance scenarios: a decode-bound pipeline names
/// decode, a fetch-bound pipeline names fetch.
#[test]
fn attribution_names_the_bound_stage_in_both_scenarios() {
    assert_eq!(
        bottleneck_of(Duration::ZERO, Duration::from_millis(3)),
        "decode",
        "decode-bound pipeline"
    );
    assert_eq!(
        bottleneck_of(Duration::from_millis(3), Duration::ZERO),
        "fetch",
        "fetch-bound pipeline"
    );
}
