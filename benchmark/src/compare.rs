//! `compare A.json B.json`: is B worse than A by more than the bounds?
//!
//! Both files are documents written by `all`. For every workload and
//! every end-to-end metric the verdict is
//!
//! * `unresolved` when the spread between a run's own rounds (quartile
//!   distance over median, of either file) is wider than the bound: the
//!   run cannot resolve a change of that size;
//! * `regression` when B is worse than A by more than the bound;
//! * `ok` otherwise.
//!
//! The bounds are read from `BENCHMARK.json`, never from the files
//! compared. Exit status 1 if there is any regression.

use crate::json::{self, Value};
use crate::workloads::Res;
use std::path::Path;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regression,
    Unresolved,
}

/// One end-to-end metric of `BENCHMARK.json`.
pub struct Bound {
    pub name: String,
    pub lower_is_better: bool,
    pub bound: f64,
}

/// A metric as a result document holds it: the value, and the spread of
/// the rounds behind it where there are rounds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Reading {
    pub value: f64,
    pub spread: Option<f64>,
}

impl Reading {
    fn from_json(metric: &Value) -> Option<Reading> {
        let num = |k: &str| metric.get(k).and_then(Value::as_f64);
        let value = num("value")?;
        let spread = match (num("q1"), num("q3")) {
            (Some(q1), Some(q3)) if value != 0.0 => Some((q3 - q1) / value.abs()),
            _ => None,
        };
        Some(Reading { value, spread })
    }
}

/// By what share of A's value B is worse (negative: better).
pub fn worsening(a: f64, b: f64, lower_is_better: bool) -> f64 {
    let change = (b - a) / a.abs();
    if lower_is_better {
        change
    } else {
        -change
    }
}

pub fn judge(a: Reading, b: Reading, bound: &Bound) -> (f64, Verdict) {
    let worse = worsening(a.value, b.value, bound.lower_is_better);
    let spread = a.spread.into_iter().chain(b.spread).fold(0.0, f64::max);
    let verdict = if spread > bound.bound {
        Verdict::Unresolved
    } else if worse > bound.bound {
        Verdict::Regression
    } else {
        Verdict::Ok
    };
    (worse, verdict)
}

pub fn load_bounds(benchmark_json: &Path) -> Res<Vec<Bound>> {
    let text = std::fs::read_to_string(benchmark_json)
        .map_err(|e| format!("{}: {e}", benchmark_json.display()))?;
    let doc = json::parse(&text).map_err(|e| format!("{}: {e}", benchmark_json.display()))?;
    doc.get("end_to_end")
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .as_arr()
        .iter()
        .map(|m| {
            let text = |k: &str| m.get(k).and_then(Value::as_str);
            Some(Bound {
                name: text("name")?.to_string(),
                lower_is_better: text("better")? == "lower",
                bound: m.get("bound")?.as_f64()?,
            })
        })
        .collect::<Option<Vec<_>>>()
        .ok_or("malformed end_to_end entry in BENCHMARK.json".into())
}

fn load(path: &str) -> Res<Value> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

pub fn run(args: &[String]) -> Res<bool> {
    let [a_path, b_path] = args else {
        return Err("usage: compare <A.json> <B.json>".into());
    };
    let bounds = load_bounds(&crate::bench_dir().join("..").join("BENCHMARK.json"))?;
    let (a, b) = (load(a_path)?, load(b_path)?);
    let reading = |doc: &Value, workload: &str, metric: &str| {
        doc.get("workloads")?
            .get(workload)?
            .get("end_to_end")?
            .get("metrics")?
            .get(metric)
            .and_then(Reading::from_json)
    };
    println!(
        "{:<24} {:<20} {:>14} {:>14} {:>9} {:>7} {:>8}  verdict",
        "workload", "metric", "A", "B", "worse %", "bound %", "spread %"
    );
    let (mut regressions, mut unresolved) = (0, 0);
    for (workload, _) in a.get("workloads").map_or(&[][..], Value::fields) {
        for bound in &bounds {
            let (Some(ra), Some(rb)) = (
                reading(&a, workload, &bound.name),
                reading(&b, workload, &bound.name),
            ) else {
                return Err(format!(
                    "{workload}/{} is missing from one of the files",
                    bound.name
                ));
            };
            let (worse, verdict) = judge(ra, rb, bound);
            regressions += usize::from(verdict == Verdict::Regression);
            unresolved += usize::from(verdict == Verdict::Unresolved);
            let spread = match ra.spread.into_iter().chain(rb.spread).reduce(f64::max) {
                Some(s) => format!("{:.2}", s * 100.0),
                None => "-".into(),
            };
            println!(
                "{workload:<24} {:<20} {:>14.6} {:>14.6} {:>+9.2} {:>7.1} {spread:>8}  {}",
                bound.name,
                ra.value,
                rb.value,
                worse * 100.0,
                bound.bound * 100.0,
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Regression => "REGRESSION",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
    }
    println!("{regressions} regression(s), {unresolved} unresolved");
    Ok(regressions == 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bound(lower_is_better: bool) -> Bound {
        Bound {
            name: "m".into(),
            lower_is_better,
            bound: 0.1,
        }
    }

    fn plain(value: f64) -> Reading {
        Reading {
            value,
            spread: None,
        }
    }

    #[test]
    fn worsening_follows_the_metric_direction() {
        assert!((worsening(100.0, 112.0, true) - 0.12).abs() < 1e-12);
        assert!((worsening(100.0, 112.0, false) + 0.12).abs() < 1e-12);
        assert!((worsening(100.0, 88.0, false) - 0.12).abs() < 1e-12);
    }

    #[test]
    fn a_change_within_the_bound_is_ok_and_beyond_it_a_regression() {
        assert_eq!(
            judge(plain(100.0), plain(109.0), &bound(true)).1,
            Verdict::Ok
        );
        assert_eq!(
            judge(plain(100.0), plain(111.0), &bound(true)).1,
            Verdict::Regression
        );
        assert_eq!(
            judge(plain(100.0), plain(89.0), &bound(false)).1,
            Verdict::Regression
        );
        // Getting better is never a regression, however large.
        assert_eq!(
            judge(plain(100.0), plain(10.0), &bound(true)).1,
            Verdict::Ok
        );
    }

    #[test]
    fn a_spread_wider_than_the_bound_leaves_the_metric_unresolved() {
        let noisy = Reading {
            value: 100.0,
            spread: Some(0.2),
        };
        assert_eq!(
            judge(noisy, plain(150.0), &bound(true)).1,
            Verdict::Unresolved
        );
        assert_eq!(
            judge(plain(100.0), noisy, &bound(true)).1,
            Verdict::Unresolved
        );
        let steady = Reading {
            value: 100.0,
            spread: Some(0.02),
        };
        assert_eq!(
            judge(steady, plain(150.0), &bound(true)).1,
            Verdict::Regression
        );
    }

    #[test]
    fn readings_take_the_spread_from_the_quartiles() {
        let m = json::parse(r#"{"value": 50, "unit": "ms", "q1": 45, "q3": 55, "n": 12}"#).unwrap();
        assert_eq!(
            Reading::from_json(&m),
            Some(Reading {
                value: 50.0,
                spread: Some(0.2)
            })
        );
        let m = json::parse(r#"{"value": 50, "unit": "ms"}"#).unwrap();
        assert_eq!(Reading::from_json(&m), Some(plain(50.0)));
    }

    #[test]
    fn bounds_come_from_benchmark_json() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let bounds = load_bounds(&path).unwrap();
        assert_eq!(bounds.len(), crate::metrics::END_TO_END.len());
        assert!(bounds.iter().all(|b| b.bound > 0.0 && b.bound <= 0.25));
        let setup = bounds.iter().find(|b| b.name == "setup_s").unwrap();
        assert!(setup.lower_is_better);
        assert!(bounds.iter().all(|b| b.bound <= setup.bound));
    }
}
