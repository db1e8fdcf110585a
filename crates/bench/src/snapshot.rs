//! Machine-readable snapshots for the two benches.
//!
//! Every run lands a `BENCH_<label>.json` file in the snapshot
//! directory (`$SCIML_BENCH_OUT_DIR`, defaulting to `results/`), via
//! the `sciml-obs` exporter.

use sciml_obs::BenchEntry;
use std::path::PathBuf;

/// Environment variable naming the snapshot directory.
pub const BENCH_OUT_ENV: &str = "SCIML_BENCH_OUT_DIR";

/// Snapshot directory: `$SCIML_BENCH_OUT_DIR` or the workspace-root
/// `results/` (anchored at compile time, not at the working directory
/// `cargo bench` starts a bench in).
pub fn bench_out_dir() -> PathBuf {
    std::env::var(BENCH_OUT_ENV)
        .map(PathBuf::from)
        .unwrap_or_else(|_| {
            PathBuf::from(env!("CARGO_MANIFEST_DIR"))
                .join("../..")
                .join("results")
        })
}

/// Writes `BENCH_<label>.json` into [`bench_out_dir`].
pub fn write_snapshot(label: &str, entries: &[BenchEntry]) -> std::io::Result<PathBuf> {
    sciml_obs::write_bench_snapshot(&bench_out_dir(), label, entries)
}
