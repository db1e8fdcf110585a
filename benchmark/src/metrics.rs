//! The metric names, units and directions this benchmark reports.
//!
//! `BENCHMARK.json` at the repo root carries the same lists plus the
//! end-to-end bounds; a unit test keeps the two in step.

use crate::json::Value;
use std::collections::BTreeMap;

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better }
}

/// What a user of the loader sees; the same six on every workload.
pub const END_TO_END: &[MetricDef] = &[
    m("setup_s", "s", "lower"),
    m("samples_per_s", "1/s", "higher"),
    m("cpu_ms_per_sample", "ms", "lower"),
    m("peak_heap_mb", "MB", "lower"),
    m("bytes_per_sample", "B", "lower"),
    m("rel_err_le10_frac", "frac", "higher"),
];

/// Single layers, named by crate. A layer that is not on a workload's
/// data path reports 0 there.
pub const PER_LAYER: &[MetricDef] = &[
    // Traced pass: the worker threads' time budget.
    m("pipeline.fetch_calls", "count", "lower"),
    m("pipeline.fetch_busy_s", "s", "lower"),
    m("pipeline.fetch_p50_us", "us", "lower"),
    m("pipeline.fetch_tail_us", "us", "lower"),
    m("pipeline.fetch_tail_pct", "%", "higher"),
    m("pipeline.decode_calls", "count", "lower"),
    m("pipeline.decode_busy_s", "s", "lower"),
    m("pipeline.decode_p50_us", "us", "lower"),
    m("pipeline.decode_tail_us", "us", "lower"),
    m("pipeline.decode_tail_pct", "%", "higher"),
    m("pipeline.reader_idle_s", "s", "lower"),
    m("pipeline.decoder_idle_s", "s", "lower"),
    m("pipeline.fetch_util", "frac", "lower"),
    m("pipeline.decode_util", "frac", "lower"),
    m("pipeline.consumer_wait_s", "s", "lower"),
    m("pipeline.unattributed_frac", "frac", "lower"),
    m("pipeline.batch_gap_p50_ms", "ms", "lower"),
    m("pipeline.batch_gap_tail_ms", "ms", "lower"),
    m("pipeline.batch_gap_tail_pct", "%", "higher"),
    m("pipeline.pool_hit_rate", "frac", "higher"),
    m("pipeline.first_batch_ms", "ms", "lower"),
    m("pipeline.allocs_per_sample", "count", "lower"),
    // Probes.
    m("pipeline.null_us_per_sample", "us", "lower"),
    m("pipeline.decode_scaling_eff", "frac", "higher"),
    m("store.open_ms", "ms", "lower"),
    m("store.fetch_p50_us", "us", "lower"),
    m("store.fetch_tail_us", "us", "lower"),
    m("store.fetch_tail_pct", "%", "higher"),
    m("store.fetch_mb_s", "MB/s", "higher"),
    m("store.crc_share", "frac", "lower"),
    m("store.verify_mb_s", "MB/s", "higher"),
    m("store.pack_raw_mb_s", "MB/s", "higher"),
    m("store.pack_auto_mb_s", "MB/s", "higher"),
    m("store.stage_mb_s", "MB/s", "higher"),
    m("store.stage_local_hit_rate", "frac", "higher"),
    m("store.auto_gzip_share", "frac", "lower"),
    m("store.auto_pack_share", "frac", "lower"),
    m("store.stored_ratio", "ratio", "higher"),
    m("store.pack_phase_s", "s", "lower"),
    m("store.stage_phase_s", "s", "lower"),
    m("store.verify_phase_s", "s", "lower"),
    m("serve.connect_ms", "ms", "lower"),
    m("serve.rtt_p50_us", "us", "lower"),
    m("serve.rtt_tail_us", "us", "lower"),
    m("serve.rtt_tail_pct", "%", "higher"),
    m("serve.fetch_hot_mb_s", "MB/s", "higher"),
    m("serve.fetch_cold_mb_s", "MB/s", "higher"),
    m("serve.server_request_p50_us", "us", "lower"),
    m("serve.server_request_p99_us", "us", "lower"),
    m("serve.cache_hit_rate", "frac", "higher"),
    m("serve.transport_s", "s", "lower"),
    m("serve.client_retries", "count", "lower"),
    m("serve.rejected_connections", "count", "lower"),
    m("compress.crc32_gb_s", "GB/s", "higher"),
    m("compress.inflate_mb_s", "MB/s", "higher"),
    m("compress.deflate_mb_s", "MB/s", "higher"),
    m("compress.gzip_ratio", "ratio", "higher"),
    m("compress.inflate_share", "frac", "lower"),
    m("pack.decode_mb_s", "MB/s", "higher"),
    m("pack.encode_mb_s", "MB/s", "higher"),
    m("pack.ratio", "ratio", "higher"),
    m("codec.cosmo_decode_melem_s", "Melem/s", "higher"),
    m("codec.cosmo_base_decode_melem_s", "Melem/s", "higher"),
    m("codec.cosmo_encode_melem_s", "Melem/s", "higher"),
    m("codec.cosmo_ratio", "ratio", "higher"),
    m("codec.deepcam_decode_melem_s", "Melem/s", "higher"),
    m("codec.deepcam_base_decode_melem_s", "Melem/s", "higher"),
    m("codec.deepcam_encode_melem_s", "Melem/s", "higher"),
    m("codec.deepcam_ratio", "ratio", "higher"),
    m("codec.encode_phase_s", "s", "lower"),
    m("codec.rel_err_gt10_frac", "frac", "lower"),
    m("half.narrow_gelem_s", "Gelem/s", "higher"),
    m("half.widen_gelem_s", "Gelem/s", "higher"),
    m("simd.level", "index", "higher"),
    m("data.cosmo_gen_ms", "ms", "lower"),
    m("data.deepcam_gen_ms", "ms", "lower"),
    m("host.available_parallelism", "count", "higher"),
    m("host.peak_rss_mb", "MB", "lower"),
    m("trace.overhead_frac", "frac", "lower"),
    m("trace.spans", "count", "lower"),
];

/// Measured values by metric name.
#[derive(Default)]
pub struct Measured(BTreeMap<&'static str, f64>);

impl Measured {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|d| d.name == name),
            "{name} is not a declared metric"
        );
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// The `metrics` object of a result line: every metric of `defs`, in
    /// their order. A metric nothing measured is reported as 0, which the
    /// per-layer list uses for "layer not on this workload's path".
    pub fn to_json(&self, defs: &[MetricDef]) -> Value {
        let mut out = Value::obj();
        for d in defs {
            let value = self.get(d.name).unwrap_or(0.0);
            out.set(
                d.name,
                Value::obj()
                    .with("value", Value::Num(value))
                    .with("unit", Value::Str(d.unit.into())),
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    #[test]
    fn benchmark_json_declares_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        for (key, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let declared: Vec<(String, String, String)> = doc
                .get(key)
                .unwrap()
                .as_arr()
                .iter()
                .map(|d| {
                    let f = |k| d.get(k).unwrap().as_str().unwrap().to_string();
                    (f("name"), f("unit"), f("better"))
                })
                .collect();
            let ours: Vec<(String, String, String)> = defs
                .iter()
                .map(|d| (d.name.into(), d.unit.into(), d.better.into()))
                .collect();
            assert_eq!(declared, ours, "{key}");
        }
        let workloads: Vec<&str> = doc
            .get("workloads")
            .unwrap()
            .as_arr()
            .iter()
            .map(|w| w.get("name").unwrap().as_str().unwrap())
            .collect();
        let ours: Vec<&str> = crate::workloads::Kind::ALL
            .iter()
            .map(|k| k.name())
            .collect();
        assert_eq!(workloads, ours);
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(d.name), "{} twice", d.name);
            assert!(d.name.len() <= 64 && d.unit.len() <= 16);
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(d
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
            assert!(["lower", "higher"].contains(&d.better));
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
    }
}
