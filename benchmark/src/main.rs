//! End-to-end loader benchmark.
//!
//! ```text
//! sciml-e2e-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! sciml-e2e-benchmark all [--seed <n>] [--seconds <s>] [--quick] [--out <file>]
//! sciml-e2e-benchmark compare <A.json> <B.json>
//! ```
//!
//! The first form runs one workload in this process and prints, as the
//! last line of standard output, one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//! `all` runs every workload both ways, each in a fresh child process,
//! and writes one document; `compare` applies the bounds of
//! `BENCHMARK.json` to two such documents. See `README.md`.

// The one exception is the counting allocator in `alloc`.
#![deny(unsafe_code)]

mod alloc;
mod compare;
mod json;
mod measure;
mod metrics;
mod probes;
mod procstat;
mod stats;
mod trace;
mod verify;
mod workloads;

use json::Value;
use metrics::{END_TO_END, PER_LAYER};
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use workloads::{Host, Kind, RemoveOnDrop, Res};

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// Seed of the committed reference results. `README.md` also names a
/// hold-out seed that was not used while the benchmark was tuned.
const DEFAULT_SEED: u64 = 20220530;
/// Window of the committed reference results, and `run_seconds` of
/// `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 20.0;
const QUICK_SECONDS: f64 = 2.0;

/// `benchmark/` of the checkout this binary was built in, unless the
/// wrapper script says otherwise.
pub fn bench_dir() -> PathBuf {
    std::env::var_os("SCIML_BENCH_DIR")
        .map_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")), PathBuf::from)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("all") => run_all(&args[1..]),
        Some("compare") => compare::run(&args[1..]),
        _ => run_one(&args),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("sciml-e2e-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

/// Value of `--name` in `args`, if present.
fn flag<'a>(args: &'a [String], name: &str) -> Res<Option<&'a str>> {
    match args.iter().position(|a| a == name) {
        None => Ok(None),
        Some(i) => args
            .get(i + 1)
            .map(|v| Some(v.as_str()))
            .ok_or(format!("{name} needs a value")),
    }
}

fn parsed<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> Res<T> {
    match flag(args, name)? {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| format!("bad value for {name}: {v}")),
    }
}

/// Runs one workload in this process. `Ok(false)`: a result was printed
/// and it is not correct.
fn run_one(args: &[String]) -> Res<bool> {
    let name = flag(args, "--workload")?.ok_or("--workload <name> is required")?;
    let kind = Kind::from_name(name).ok_or(format!("unknown workload {name}"))?;
    let seed: u64 = parsed(args, "--seed", DEFAULT_SEED)?;
    let seconds: f64 = parsed(args, "--seconds", DEFAULT_SECONDS)?;
    let traced = match parsed(args, "--trace", 0u8)? {
        0 => false,
        1 => true,
        other => return Err(format!("--trace takes 0 or 1, not {other}")),
    };
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} is out of range"));
    }

    let host = Host::detect();
    let simd = sciml_simd::active_level().name();
    let out_dir = bench_dir().join("out");
    // Everything a run writes besides its trace lives here and goes
    // away with the run.
    let scratch = out_dir.join(format!("{}-{}", kind.name(), std::process::id()));
    let _cleanup = RemoveOnDrop(vec![scratch.clone()]);
    println!(
        "workload {} seed {seed} seconds {seconds} trace {} | {} | {} cores, simd {simd}",
        kind.name(),
        u8::from(traced),
        kind.shape(),
        host.nproc,
    );
    let mut detail = Value::obj()
        .with("workload", Value::Str(kind.name().into()))
        .with("seed", Value::Num(seed as f64))
        .with("seconds", Value::Num(seconds))
        .with("available_parallelism", Value::Num(host.nproc as f64))
        .with("simd", Value::Str(simd.into()))
        .with("sample_shape", Value::Str(kind.shape()))
        .with("dataset_samples", Value::Num(kind.samples() as f64))
        .with("epochs_per_round", Value::Num(kind.epochs() as f64))
        .with("decode_threads", Value::Num(host.decode_threads() as f64))
        .with(
            "reader_threads",
            Value::Num(host.reader_threads(kind) as f64),
        );

    let (outcome, defs) = if traced {
        let trace_file = out_dir.join(format!("trace_{}.json", kind.name()));
        let o = measure::per_layer(
            kind,
            seed,
            seconds,
            host,
            &scratch,
            &trace_file,
            &mut detail,
        )?;
        (o, PER_LAYER)
    } else {
        let o = measure::end_to_end(kind, seed, seconds, host, &scratch, &mut detail)?;
        (o, END_TO_END)
    };

    for d in defs {
        let v = outcome.measured.get(d.name).unwrap_or(0.0);
        println!(
            "  {:<34} {v:>16.6} {:<8} ({} is better)",
            d.name, d.unit, d.better
        );
    }
    for e in &outcome.errors {
        eprintln!("sciml-e2e-benchmark: {}: {e}", kind.name());
    }
    println!("{}", Value::obj().with("detail", detail).to_line());
    let correct = outcome.failed == 0 && outcome.errors.is_empty();
    let result = Value::obj()
        .with("correct", Value::Bool(correct))
        .with("attempted", Value::Num(outcome.attempted as f64))
        .with("failed", Value::Num(outcome.failed as f64))
        .with("metrics", outcome.measured.to_json(defs));
    println!("{}", result.to_line());
    Ok(correct)
}

/// Runs every workload with `--trace 0` and `--trace 1`, each run in a
/// fresh child process, and writes the combined document.
fn run_all(args: &[String]) -> Res<bool> {
    let quick = args.iter().any(|a| a == "--quick");
    let seed: u64 = parsed(args, "--seed", DEFAULT_SEED)?;
    let window = if quick {
        QUICK_SECONDS
    } else {
        DEFAULT_SECONDS
    };
    let seconds: f64 = parsed(args, "--seconds", window)?;
    let out_path = flag(args, "--out")?.map_or_else(
        || bench_dir().join("out").join("BENCH_e2e.json"),
        PathBuf::from,
    );
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;

    let mut all_ok = true;
    let mut workloads_doc = Value::obj();
    for kind in Kind::ALL {
        let mut entry = Value::obj();
        for (traced, key) in [("0", "end_to_end"), ("1", "per_layer")] {
            let child = Command::new(&exe)
                .args(["--workload", kind.name(), "--trace", traced])
                .args(["--seed", &seed.to_string()])
                .args(["--seconds", &seconds.to_string()])
                .stdin(Stdio::null())
                .stderr(Stdio::inherit())
                .output()
                .map_err(|e| format!("spawn {}: {e}", exe.display()))?;
            let stdout = String::from_utf8_lossy(&child.stdout);
            // The last line is the result, the one before it the detail.
            let mut lines = stdout.lines().rev().map(json::parse);
            let (Some(Ok(result)), Some(Ok(detail))) = (lines.next(), lines.next()) else {
                return Err(format!(
                    "{} --trace {traced} printed no result (exit {:?})",
                    kind.name(),
                    child.status.code()
                ));
            };
            let field = |doc: &Value, k: &str| doc.get(k).cloned().unwrap_or(Value::Null);
            let detail = field(&detail, "detail");
            let mut metrics = field(&result, "metrics");
            // Quartiles over rounds travel in the detail line; fold them
            // into the metric they belong to.
            for (name, q) in field(&detail, "quartiles").fields() {
                metrics.set(name, q.clone());
            }
            all_ok &= child.status.success() && result.get("correct") == Some(&Value::Bool(true));
            if key == "end_to_end" {
                all_ok &= check_end_to_end(kind, &metrics);
                entry.set("sample_shape", field(&detail, "sample_shape"));
            }
            let run = Value::obj()
                .with("correct", field(&result, "correct"))
                .with("attempted", field(&result, "attempted"))
                .with("failed", field(&result, "failed"))
                .with("metrics", metrics)
                .with("detail", detail);
            print_metrics(kind, key, &run);
            entry.set(key, run);
        }
        workloads_doc.set(kind.name(), entry);
    }
    let doc = Value::obj()
        .with("schema", Value::Str("sciml-e2e-benchmark/1".into()))
        .with("seed", Value::Num(seed as f64))
        .with("seconds", Value::Num(seconds))
        .with("quick", Value::Bool(quick))
        .with("workloads", workloads_doc)
        .with("claim", Value::Null);
    if let Some(parent) = out_path.parent() {
        std::fs::create_dir_all(parent).map_err(|e| format!("{}: {e}", parent.display()))?;
    }
    std::fs::write(&out_path, doc.to_pretty())
        .map_err(|e| format!("{}: {e}", out_path.display()))?;
    println!("wrote {}", out_path.display());
    let verdict = if all_ok {
        "all workloads correct"
    } else {
        "FAILED"
    };
    println!("{verdict}");
    Ok(all_ok)
}

/// Schema check of one workload's end-to-end metrics: all there, all
/// finite, none zero.
fn check_end_to_end(kind: Kind, metrics: &Value) -> bool {
    let mut ok = true;
    for d in END_TO_END {
        let v = metrics
            .get(d.name)
            .and_then(|m| m.get("value"))
            .and_then(Value::as_f64);
        if !v.is_some_and(|v| v.is_finite() && v != 0.0) {
            eprintln!("sciml-e2e-benchmark: {}: {} is {v:?}", kind.name(), d.name);
            ok = false;
        }
    }
    ok
}

fn print_metrics(kind: Kind, key: &str, run: &Value) {
    let num = |v: &Value, k: &str| v.get(k).and_then(Value::as_f64);
    println!(
        "{} {key}: correct {} attempted {} failed {}",
        kind.name(),
        run.get("correct") == Some(&Value::Bool(true)),
        num(run, "attempted").unwrap_or(f64::NAN),
        num(run, "failed").unwrap_or(f64::NAN)
    );
    for (name, metric) in run.get("metrics").map_or(&[][..], Value::fields) {
        let unit = metric.get("unit").and_then(Value::as_str).unwrap_or("");
        let value = num(metric, "value").unwrap_or(f64::NAN);
        match (num(metric, "q1"), num(metric, "q3"), num(metric, "n")) {
            (Some(q1), Some(q3), Some(n)) => {
                println!("  {name:<34} {value:>16.6} {unit:<8} q1 {q1:.6} q3 {q3:.6} n {n}")
            }
            _ => println!("  {name:<34} {value:>16.6} {unit}"),
        }
    }
}
