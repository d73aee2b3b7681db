//! Steadiness mode and record comparison.
//!
//! `steady` runs one workload repeatedly, each run a fresh process with
//! its own seed, and prints for each metric the median, the quartiles and
//! the spread against the bound in `BENCHMARK.json`; it is how the bounds
//! were set. `compare` holds a second set of records against a first:
//! each median may be worse by at most the metric's bound, and records
//! measured on different machines are flagged.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::process::{Command, Stdio};

use serde_json::Value;

use crate::stats::{median, quartiles, spread};

/// Bound and direction of each end-to-end metric, from `BENCHMARK.json`.
pub struct Bounds {
    pub run_seconds: u64,
    metrics: BTreeMap<String, (f64, bool)>,
}

impl Bounds {
    pub fn load(path: &Path) -> Result<Bounds, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let doc: Value =
            serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let mut metrics = BTreeMap::new();
        for m in doc
            .get("end_to_end")
            .and_then(Value::as_array)
            .unwrap_or(&[])
        {
            let name = m.get("name").and_then(Value::as_str).unwrap_or_default();
            let bound = m.get("bound").and_then(Value::as_f64).unwrap_or(0.0);
            let lower = m.get("better").and_then(Value::as_str) == Some("lower");
            metrics.insert(name.to_string(), (bound, lower));
        }
        Ok(Bounds {
            run_seconds: doc.get("run_seconds").and_then(Value::as_u64).unwrap_or(10),
            metrics,
        })
    }

    fn get(&self, name: &str) -> Option<(f64, bool)> {
        self.metrics.get(name).copied()
    }
}

/// Run the benchmark `runs` times with seeds `first_seed..`, append one
/// JSON record per run to `out`, and print the per-metric table.
pub fn steady(
    workload: &str,
    runs: u64,
    seconds: u64,
    trace: bool,
    first_seed: u64,
    bounds: &Bounds,
    out: &Path,
) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    if let Some(dir) = out.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(out)
        .map_err(|e| format!("{}: {e}", out.display()))?;
    let mut records = Vec::new();
    for seed in first_seed..first_seed + runs {
        let child = Command::new(&exe)
            .args(["--workload", workload])
            .args(["--seed", &seed.to_string()])
            .args(["--seconds", &seconds.to_string()])
            .args(["--trace", if trace { "1" } else { "0" }])
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("run {}: {e}", exe.display()))?;
        let stdout = String::from_utf8_lossy(&child.stdout);
        let lines: Vec<&str> = stdout.lines().filter(|l| !l.trim().is_empty()).collect();
        let result: Value = lines
            .last()
            .and_then(|l| serde_json::from_str(l).ok())
            .ok_or_else(|| format!("seed {seed}: no result line (exit {})", child.status))?;
        let record = lines
            .iter()
            .rev()
            .filter_map(|l| serde_json::from_str::<Value>(l).ok())
            .find_map(|v| v.get("record").cloned())
            .unwrap_or(Value::Null);
        let doc = serde_json::json!({ "seed": seed, "record": record, "result": result });
        let line = serde_json::to_string(&doc).expect("the vendored JSON writer is infallible");
        writeln!(file, "{line}").map_err(|e| format!("{}: {e}", out.display()))?;
        println!("seed {seed}: exit {} {line}", child.status);
        records.push(doc);
    }
    file.flush()
        .map_err(|e| format!("{}: {e}", out.display()))?;
    print_table(&records, bounds)
}

/// Records from a file written by [`steady`].
pub fn read_records(path: &Path) -> Result<Vec<Value>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| serde_json::from_str(l).map_err(|e| format!("{}: {e}", path.display())))
        .collect()
}

/// Values of every metric across `records`, by name.
fn metric_values(records: &[Value]) -> BTreeMap<String, (String, Vec<f64>)> {
    let mut out: BTreeMap<String, (String, Vec<f64>)> = BTreeMap::new();
    for r in records {
        let metrics = r.get("result").and_then(|x| x.get("metrics"));
        for (name, m) in metrics.and_then(Value::as_object).unwrap_or(&[]) {
            let unit = m.get("unit").and_then(Value::as_str).unwrap_or_default();
            if let Some(v) = m.get("value").and_then(Value::as_f64) {
                let e = out
                    .entry(name.clone())
                    .or_insert_with(|| (unit.to_string(), Vec::new()));
                e.1.push(v);
            }
        }
    }
    out
}

/// Print median, quartiles and spread per metric; true when every
/// bounded spread (all but `setup_s`) is within its bound and every run
/// was correct.
pub fn print_table(records: &[Value], bounds: &Bounds) -> Result<bool, String> {
    let failed_runs = records
        .iter()
        .filter(|r| {
            r.get("result")
                .and_then(|x| x.get("correct"))
                .and_then(Value::as_bool)
                != Some(true)
        })
        .count();
    println!(
        "{:<28} {:>6} {:>4} {:>12} {:>12} {:>12} {:>8} {:>6} {:>7}  verdict",
        "metric", "unit", "n", "median", "q1", "q3", "spread", "bound", "sp/bd"
    );
    let mut ok = failed_runs == 0;
    for (name, (unit, values)) in metric_values(records) {
        let med = median(&values).unwrap_or(0.0);
        let (q1, q3) = quartiles(&values).unwrap_or((med, med));
        let spread = spread(&values).unwrap_or(0.0);
        let (verdict, bound) = match bounds.get(&name) {
            Some((bound, _)) => {
                let v = if name == "setup_s" {
                    "exempt"
                } else if spread <= bound / 3.0 {
                    "steady"
                } else if spread <= bound {
                    "within bound"
                } else {
                    ok = false;
                    "WIDER THAN BOUND"
                };
                (v, bound)
            }
            None => ("unbounded", f64::NAN),
        };
        println!(
            "{name:<28} {unit:>6} {:>4} {med:>12.6} {q1:>12.6} {q3:>12.6} {spread:>8.4} {bound:>6.3} {:>7.3}  {verdict}",
            values.len(),
            spread / bound,
        );
    }
    if failed_runs > 0 {
        println!("{failed_runs} run(s) were not correct");
    }
    Ok(ok)
}

/// Hold set `b` against set `a`: each metric's median may be worse by at
/// most its bound. Differing machine fingerprints are flagged.
pub fn compare(a: &[Value], b: &[Value], bounds: &Bounds) -> bool {
    let fingerprints: std::collections::BTreeSet<String> = a
        .iter()
        .chain(b)
        .filter_map(|r| r.get("record").and_then(|x| x.get("fingerprint")))
        .map(|f| serde_json::to_string(f).unwrap_or_default())
        .collect();
    let mut ok = true;
    if fingerprints.len() > 1 {
        println!("FINGERPRINT MISMATCH: the records come from different machines:");
        for f in &fingerprints {
            println!("  {f}");
        }
        ok = false;
    }
    let (va, vb) = (metric_values(a), metric_values(b));
    println!(
        "{:<28} {:>12} {:>12} {:>9} {:>6}  verdict",
        "metric", "median A", "median B", "worse by", "bound"
    );
    for (name, (_, xs)) in &va {
        let Some((_, ys)) = vb.get(name) else {
            println!("{name:<28} missing from B");
            ok = false;
            continue;
        };
        let (ma, mb) = (median(xs).unwrap_or(0.0), median(ys).unwrap_or(0.0));
        let Some((bound, lower)) = bounds.get(name) else {
            println!(
                "{name:<28} {ma:>12.6} {mb:>12.6} {:>9} {:>6}  unbounded",
                "", ""
            );
            continue;
        };
        let worse = if ma == 0.0 {
            0.0
        } else if lower {
            (mb - ma) / ma.abs()
        } else {
            (ma - mb) / ma.abs()
        };
        let verdict = if worse > bound {
            ok = false;
            "WORSE THAN BOUND"
        } else {
            "ok"
        };
        println!("{name:<28} {ma:>12.6} {mb:>12.6} {worse:>9.4} {bound:>6.3}  {verdict}");
    }
    ok
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(fp: &str, v: f64) -> Value {
        serde_json::json!({
            "record": serde_json::json!({ "fingerprint": serde_json::json!({ "cpu": fp }) }),
            "result": serde_json::json!({
                "correct": true,
                "metrics": serde_json::json!({
                    "exp_per_s": serde_json::json!({ "value": v, "unit": "exp/s" }),
                }),
            }),
        })
    }

    fn bounds() -> Bounds {
        let mut metrics = BTreeMap::new();
        metrics.insert("exp_per_s".to_string(), (0.1, false));
        Bounds {
            run_seconds: 10,
            metrics,
        }
    }

    #[test]
    fn compare_flags_regressions_and_foreign_fingerprints() {
        let a: Vec<Value> = [100.0, 101.0, 99.0].iter().map(|&v| rec("x", v)).collect();
        let same: Vec<Value> = [98.0, 95.0, 97.0].iter().map(|&v| rec("x", v)).collect();
        let slow: Vec<Value> = [80.0, 85.0, 82.0].iter().map(|&v| rec("x", v)).collect();
        let other: Vec<Value> = [100.0, 101.0, 99.0].iter().map(|&v| rec("y", v)).collect();
        assert!(compare(&a, &same, &bounds()));
        assert!(!compare(&a, &slow, &bounds()));
        assert!(!compare(&a, &other, &bounds()));
        assert!(print_table(&a, &bounds()).unwrap());
    }
}
