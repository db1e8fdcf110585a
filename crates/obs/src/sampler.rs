//! Pipeline bottleneck attribution: a background sampler that watches
//! the metrics registry and names the stage limiting throughput.
//!
//! The paper's per-stage breakdowns (Figs 8–12) answer "which
//! preprocessing stage is the bottleneck" offline; [`PipelineSampler`]
//! answers it live. Each tick it snapshots the registry, computes
//! per-stage **utilization** — busy nanoseconds accumulated in the
//! stage's latency histogram divided by wall time × worker count — and
//! attributes the bottleneck to the stage with the highest utilization,
//! with a confidence score from the margin over the runner-up. The
//! [`AttributionReport`] also carries per-stage p95s, queue-depth
//! gauges, pool/cache hit rates, and the tracer's dropped-span count,
//! so a stalled consumer, an undersized pool, and span loss are all
//! visible in one line.
//!
//! The report is the structured signal ROADMAP's self-tuning controller
//! will consume; today it feeds `sciml fetch --decode … --watch`,
//! `--attribution-out` and `results/BENCH_obs_attribution.json`.

use crate::registry::{MetricsRegistry, RegistrySnapshot};
use crate::trace::Tracer;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One pipeline stage the sampler attributes time to.
#[derive(Debug, Clone)]
pub struct StageSpec {
    /// Stage name in reports (`"fetch"`, `"decode"`).
    pub name: String,
    /// Registry name of the stage's latency histogram, whose `sum` is
    /// the stage's accumulated busy nanoseconds.
    pub histogram: String,
    /// Workers concurrently executing the stage; scales the busy-time
    /// budget (`elapsed × workers`).
    pub workers: u64,
}

impl StageSpec {
    /// Convenience constructor.
    pub fn new(name: &str, histogram: &str, workers: u64) -> Self {
        Self {
            name: name.to_string(),
            histogram: histogram.to_string(),
            workers: workers.max(1),
        }
    }
}

/// The standard data-pipeline stage set (fetch on reader threads,
/// decode on decoder threads) against the `pipeline.*` histograms.
pub fn pipeline_stages(reader_threads: u64, decode_threads: u64) -> Vec<StageSpec> {
    vec![
        StageSpec::new("fetch", "pipeline.fetch_ns", reader_threads),
        StageSpec::new("decode", "pipeline.decode_ns", decode_threads),
    ]
}

/// Per-stage slice of an [`AttributionReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct StageReport {
    /// Stage name.
    pub name: String,
    /// Workers assumed for the stage.
    pub workers: u64,
    /// Busy nanoseconds accumulated over the report window.
    pub busy_ns: u64,
    /// `busy_ns / (elapsed_ns × workers)`, clamped to `[0, 1]`.
    pub utilization: f64,
    /// p95 of the stage latency histogram (full run so far).
    pub p95_ns: u64,
    /// Operations recorded in the window.
    pub count: u64,
}

/// Snapshot of "where is the pipeline spending its time".
#[derive(Debug, Clone, PartialEq)]
pub struct AttributionReport {
    /// Wall-clock window the report covers, nanoseconds.
    pub elapsed_ns: u64,
    /// Name of the stage with the highest utilization; `"idle"` when no
    /// stage did any work.
    pub bottleneck: String,
    /// Margin of the winner over the runner-up, `(u1 - u2) / u1`,
    /// clamped to `[0, 1]`. 0 when nothing ran.
    pub confidence: f64,
    /// Per-stage breakdown, in spec order.
    pub stages: Vec<StageReport>,
    /// Buffer-pool hit rate in `[0, 1]`, when the pool counters exist.
    pub pool_hit_rate: Option<f64>,
    /// Server DRAM cache hit rate in `[0, 1]`, when the cache counters
    /// exist.
    pub cache_hit_rate: Option<f64>,
    /// `(gauge name, depth)` for every `pipeline.queue.*` gauge.
    pub queue_depths: Vec<(String, i64)>,
    /// Spans overwritten in the tracer ring so far.
    pub dropped_spans: u64,
}

fn rate(hits: u64, misses: u64) -> Option<f64> {
    let total = hits + misses;
    if total == 0 {
        None
    } else {
        Some(hits as f64 / total as f64)
    }
}

/// Computes an attribution report from two registry snapshots taken
/// `elapsed_ns` apart. Pure: all inputs explicit, trivially testable.
pub fn attribute(
    prev: &RegistrySnapshot,
    cur: &RegistrySnapshot,
    elapsed_ns: u64,
    stages: &[StageSpec],
    dropped_spans: u64,
) -> AttributionReport {
    let elapsed_ns = elapsed_ns.max(1);
    let mut reports = Vec::with_capacity(stages.len());
    for spec in stages {
        let (busy_ns, count, p95_ns) = match cur.histogram(&spec.histogram) {
            Some(h) => {
                let (prev_sum, prev_count) = prev
                    .histogram(&spec.histogram)
                    .map(|p| (p.sum, p.count))
                    .unwrap_or((0, 0));
                (
                    h.sum.saturating_sub(prev_sum),
                    h.count.saturating_sub(prev_count),
                    h.percentile(0.95),
                )
            }
            None => (0, 0, 0),
        };
        let budget = (elapsed_ns as f64) * (spec.workers as f64);
        reports.push(StageReport {
            name: spec.name.clone(),
            workers: spec.workers,
            busy_ns,
            utilization: (busy_ns as f64 / budget).clamp(0.0, 1.0),
            p95_ns,
            count,
        });
    }
    let (bottleneck, confidence) = {
        let mut utils: Vec<(usize, f64)> = reports
            .iter()
            .enumerate()
            .map(|(i, r)| (i, r.utilization))
            .collect();
        utils.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
        match utils.first() {
            Some(&(idx, top)) if top > 0.0 => {
                let runner_up = utils.get(1).map(|&(_, u)| u).unwrap_or(0.0);
                (
                    reports[idx].name.clone(),
                    ((top - runner_up) / top).clamp(0.0, 1.0),
                )
            }
            _ => ("idle".to_string(), 0.0),
        }
    };
    AttributionReport {
        elapsed_ns,
        bottleneck,
        confidence,
        stages: reports,
        pool_hit_rate: rate(
            cur.counter("pipeline.pool.hits"),
            cur.counter("pipeline.pool.misses"),
        ),
        cache_hit_rate: rate(
            cur.counter("pipeline.cache.memory.hits"),
            cur.counter("pipeline.cache.memory.misses"),
        ),
        queue_depths: cur
            .metrics
            .iter()
            .filter(|(n, _)| n.starts_with("pipeline.queue."))
            .map(|(n, _)| (n.clone(), cur.gauge(n)))
            .collect(),
        dropped_spans,
    }
}

fn json_opt(v: Option<f64>) -> String {
    match v {
        Some(x) => format!("{x:.4}"),
        None => "null".to_string(),
    }
}

impl AttributionReport {
    /// Renders the report as a self-describing JSON object
    /// (`"schema": "sciml.obs.attribution.v1"`).
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(512);
        s.push_str("{\"schema\":\"sciml.obs.attribution.v1\"");
        s.push_str(&format!(",\"elapsed_ns\":{}", self.elapsed_ns));
        s.push_str(&format!(
            ",\"bottleneck\":\"{}\"",
            crate::json::escape(&self.bottleneck)
        ));
        s.push_str(&format!(",\"confidence\":{:.4}", self.confidence));
        s.push_str(",\"stages\":[");
        for (i, st) in self.stages.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "{{\"name\":\"{}\",\"workers\":{},\"busy_ns\":{},\"utilization\":{:.4},\"p95_ns\":{},\"count\":{}}}",
                crate::json::escape(&st.name),
                st.workers,
                st.busy_ns,
                st.utilization,
                st.p95_ns,
                st.count
            ));
        }
        s.push(']');
        s.push_str(&format!(
            ",\"pool_hit_rate\":{}",
            json_opt(self.pool_hit_rate)
        ));
        s.push_str(&format!(
            ",\"cache_hit_rate\":{}",
            json_opt(self.cache_hit_rate)
        ));
        s.push_str(",\"queues\":{");
        for (i, (name, depth)) in self.queue_depths.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!("\"{}\":{}", crate::json::escape(name), depth));
        }
        s.push('}');
        s.push_str(&format!(",\"dropped_spans\":{}", self.dropped_spans));
        s.push('}');
        s
    }

    /// One human-readable status line for `sciml fetch --watch`.
    pub fn live_line(&self) -> String {
        let mut s = format!(
            "[obs] bottleneck={} conf={:.2}",
            self.bottleneck, self.confidence
        );
        for st in &self.stages {
            s.push_str(&format!(
                " | {} u={:.2} p95={:.2}ms",
                st.name,
                st.utilization,
                st.p95_ns as f64 / 1e6
            ));
        }
        if let Some(p) = self.pool_hit_rate {
            s.push_str(&format!(" | pool {:.0}%", p * 100.0));
        }
        if let Some(c) = self.cache_hit_rate {
            s.push_str(&format!(" | cache {:.0}%", c * 100.0));
        }
        for (name, depth) in &self.queue_depths {
            let short = name.rsplit('.').next().unwrap_or(name);
            s.push_str(&format!(" | {short}={depth}"));
        }
        if self.dropped_spans > 0 {
            s.push_str(&format!(" | dropped_spans={}", self.dropped_spans));
        }
        s
    }
}

/// Sampler configuration.
#[derive(Debug, Clone)]
pub struct SamplerConfig {
    /// Tick period.
    pub interval: Duration,
    /// Stages to attribute between.
    pub stages: Vec<StageSpec>,
    /// Print [`AttributionReport::live_line`] to stderr on every tick.
    pub live: bool,
}

impl Default for SamplerConfig {
    fn default() -> Self {
        Self {
            interval: Duration::from_millis(500),
            stages: pipeline_stages(2, 2),
            live: false,
        }
    }
}

/// Background thread periodically attributing pipeline time.
///
/// The baseline snapshot is taken at spawn, so every report covers the
/// run so far (stable attribution, immune to tick jitter). On each tick
/// the sampler also publishes the tracer's dropped-span count as the
/// `obs.trace.dropped_spans` gauge.
#[derive(Debug)]
pub struct PipelineSampler {
    stop: Arc<AtomicBool>,
    latest: Arc<Mutex<Option<AttributionReport>>>,
    handle: Option<std::thread::JoinHandle<()>>,
    registry: Arc<MetricsRegistry>,
    tracer: Arc<Tracer>,
    baseline: RegistrySnapshot,
    started: Instant,
    stages: Vec<StageSpec>,
}

impl PipelineSampler {
    /// Starts the sampling thread.
    pub fn spawn(registry: Arc<MetricsRegistry>, tracer: Arc<Tracer>, cfg: SamplerConfig) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let latest = Arc::new(Mutex::new(None));
        let baseline = registry.snapshot();
        let started = Instant::now();
        let handle = {
            let stop = Arc::clone(&stop);
            let latest = Arc::clone(&latest);
            let registry = Arc::clone(&registry);
            let tracer = Arc::clone(&tracer);
            let baseline = baseline.clone();
            let stages = cfg.stages.clone();
            let interval = cfg.interval;
            let live = cfg.live;
            std::thread::Builder::new()
                .name("obs-sampler".to_string())
                .spawn(move || {
                    let chunk = Duration::from_millis(50).min(interval);
                    let mut next = Instant::now() + interval;
                    while !stop.load(Ordering::Relaxed) {
                        if Instant::now() < next {
                            std::thread::sleep(chunk);
                            continue;
                        }
                        next += interval;
                        let dropped = tracer.dropped();
                        registry
                            .gauge("obs.trace.dropped_spans")
                            .set(i64::try_from(dropped).unwrap_or(i64::MAX));
                        let report = attribute(
                            &baseline,
                            &registry.snapshot(),
                            u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX),
                            &stages,
                            dropped,
                        );
                        if live {
                            eprintln!("{}", report.live_line());
                        }
                        *latest.lock() = Some(report);
                    }
                })
                .ok()
        };
        Self {
            stop,
            latest,
            handle,
            registry,
            tracer,
            baseline,
            started,
            stages: cfg.stages,
        }
    }

    /// The most recent tick's report, if one has fired yet.
    pub fn latest(&self) -> Option<AttributionReport> {
        self.latest.lock().clone()
    }

    /// Stops the thread and returns a final full-run report.
    pub fn stop(mut self) -> AttributionReport {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
        let dropped = self.tracer.dropped();
        self.registry
            .gauge("obs.trace.dropped_spans")
            .set(i64::try_from(dropped).unwrap_or(i64::MAX));
        attribute(
            &self.baseline,
            &self.registry.snapshot(),
            u64::try_from(self.started.elapsed().as_nanos()).unwrap_or(u64::MAX),
            &self.stages,
            dropped,
        )
    }
}

impl Drop for PipelineSampler {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reg_with(fetch_busy: u64, decode_busy: u64, per_op_ns: u64) -> Arc<MetricsRegistry> {
        let reg = MetricsRegistry::new();
        let f = reg.histogram("pipeline.fetch_ns");
        let d = reg.histogram("pipeline.decode_ns");
        for _ in 0..fetch_busy / per_op_ns {
            f.record(per_op_ns);
        }
        for _ in 0..decode_busy / per_op_ns {
            d.record(per_op_ns);
        }
        reg
    }

    #[test]
    fn names_the_busier_stage() {
        let stages = pipeline_stages(1, 1);
        let empty = MetricsRegistry::new().snapshot();
        // Decode-bound: decode accumulated 9× the busy time.
        let reg = reg_with(1_000_000, 9_000_000, 100_000);
        let report = attribute(&empty, &reg.snapshot(), 10_000_000, &stages, 0);
        assert_eq!(report.bottleneck, "decode");
        assert!(report.confidence > 0.5, "conf={}", report.confidence);
        // Fetch-bound: mirror image.
        let reg = reg_with(9_000_000, 1_000_000, 100_000);
        let report = attribute(&empty, &reg.snapshot(), 10_000_000, &stages, 0);
        assert_eq!(report.bottleneck, "fetch");
    }

    #[test]
    fn idle_pipeline_reports_idle() {
        let stages = pipeline_stages(2, 2);
        let snap = MetricsRegistry::new().snapshot();
        let report = attribute(&snap, &snap, 1_000_000, &stages, 0);
        assert_eq!(report.bottleneck, "idle");
        assert_eq!(report.confidence, 0.0);
    }

    #[test]
    fn baseline_subtraction_windows_the_busy_time() {
        let stages = pipeline_stages(1, 1);
        let reg = reg_with(5_000_000, 0, 1_000_000);
        let prev = reg.snapshot();
        reg.histogram("pipeline.decode_ns").record(2_000_000);
        let report = attribute(&prev, &reg.snapshot(), 2_000_000, &stages, 0);
        // Fetch busy time is entirely in the baseline; only decode
        // advanced inside the window.
        assert_eq!(report.stages[0].busy_ns, 0);
        assert_eq!(report.stages[1].busy_ns, 2_000_000);
        assert_eq!(report.bottleneck, "decode");
    }

    #[test]
    fn report_json_is_valid_and_self_describing() {
        let stages = pipeline_stages(2, 2);
        let reg = reg_with(1_000_000, 3_000_000, 100_000);
        reg.counter("pipeline.pool.hits").add(99);
        reg.counter("pipeline.pool.misses").add(1);
        reg.gauge("pipeline.queue.raw_depth").set(7);
        let empty = MetricsRegistry::new().snapshot();
        let report = attribute(&empty, &reg.snapshot(), 10_000_000, &stages, 3);
        let v = crate::json::parse(&report.to_json()).expect("valid JSON");
        assert_eq!(
            v.get("schema").and_then(|s| s.as_str()),
            Some("sciml.obs.attribution.v1")
        );
        assert_eq!(v.get("bottleneck").and_then(|s| s.as_str()), Some("decode"));
        assert_eq!(
            v.get("queues")
                .and_then(|q| q.get("pipeline.queue.raw_depth"))
                .and_then(|d| d.as_f64()),
            Some(7.0)
        );
        assert_eq!(v.get("dropped_spans").and_then(|d| d.as_f64()), Some(3.0));
        assert!(report.live_line().contains("bottleneck=decode"));
    }

    #[test]
    fn sampler_ticks_and_publishes_dropped_spans() {
        let reg = MetricsRegistry::new();
        let tracer = Tracer::new(2);
        for _ in 0..5 {
            drop(tracer.span("t", "s")); // overflow the ring → drops
        }
        let sampler = PipelineSampler::spawn(
            Arc::clone(&reg),
            Arc::clone(&tracer),
            SamplerConfig {
                interval: Duration::from_millis(10),
                stages: pipeline_stages(1, 1),
                live: false,
            },
        );
        reg.histogram("pipeline.fetch_ns").record(1_000_000);
        let deadline = Instant::now() + Duration::from_secs(5);
        while sampler.latest().is_none() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(sampler.latest().is_some(), "sampler never ticked");
        let report = sampler.stop();
        assert_eq!(report.dropped_spans, 3);
        assert_eq!(reg.snapshot().gauge("obs.trace.dropped_spans"), 3);
        assert_eq!(report.bottleneck, "fetch");
    }
}
