//! Bench snapshot exporter: named perf snapshots →
//! `results/BENCH_*.json` machine-readable dumps. Registry metrics have
//! one format, the Prometheus exposition ([`crate::Telemetry::exposition`]).

use crate::json::escape;
use std::io;
use std::path::{Path, PathBuf};

/// One scalar result inside a bench snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchEntry {
    /// Metric name, e.g. `"serve_loopback/epoch_batched/16.mean_ns"`.
    pub metric: String,
    /// Measured value.
    pub value: f64,
    /// Unit string, e.g. `"ns"`, `"bytes_per_s"`.
    pub unit: String,
}

impl BenchEntry {
    /// Entry constructor.
    pub fn new(metric: impl Into<String>, value: f64, unit: impl Into<String>) -> Self {
        Self {
            metric: metric.into(),
            value,
            unit: unit.into(),
        }
    }
}

/// Serializes a bench snapshot document (label + entries) as JSON.
pub fn bench_snapshot_json(label: &str, entries: &[BenchEntry]) -> String {
    let mut out = format!("{{\n  \"label\": \"{}\",\n  \"entries\": [", escape(label));
    for (i, e) in entries.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let value = if e.value.is_finite() { e.value } else { 0.0 };
        out.push_str(&format!(
            "\n    {{\"metric\": \"{}\", \"value\": {value}, \"unit\": \"{}\"}}",
            escape(&e.metric),
            escape(&e.unit)
        ));
    }
    out.push_str("\n  ]\n}\n");
    out
}

/// Writes `BENCH_<label>.json` into `dir` (created if missing),
/// returning the path. This is the machine-readable perf trajectory the
/// bench harness accumulates under `results/`.
pub fn write_bench_snapshot(
    dir: &Path,
    label: &str,
    entries: &[BenchEntry],
) -> io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let sanitized: String = label
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect();
    let path = dir.join(format!("BENCH_{sanitized}.json"));
    std::fs::write(&path, bench_snapshot_json(label, entries))?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    #[test]
    fn bench_snapshot_writes_valid_json_file() {
        let dir = std::env::temp_dir().join("sciml_obs_bench_test");
        let entries = vec![
            BenchEntry::new("epoch.mean_ns", 1234.5, "ns"),
            BenchEntry::new("epoch.p99_ns", 9999.0, "ns"),
        ];
        let path = write_bench_snapshot(&dir, "serve loopback", &entries).unwrap();
        assert!(path.ends_with("BENCH_serve_loopback.json"));
        let text = std::fs::read_to_string(&path).unwrap();
        let v = json::parse(&text).unwrap();
        assert_eq!(v.get("label").unwrap().as_str(), Some("serve loopback"));
        assert_eq!(v.get("entries").unwrap().as_array().unwrap().len(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }
}
