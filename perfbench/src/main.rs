//! perfbench — the VULFI workspace's end-to-end and per-layer benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perfbench steady --workload <name> [--runs 10] [--seconds S] [--trace 0|1]
//!                  [--first-seed 1] [--out FILE]
//! perfbench compare <records-A> <records-B>
//! perfbench digests --workload <name>
//! ```
//!
//! A run prints a record line (machine fingerprint, seed, thread count,
//! sample counts) and, last, one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`: the end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1`. It exits non-zero when any output
//! fails its check. Run it from the repository root; see README.md.

mod batch;
mod check;
mod inputs;
mod report;
mod serve;
mod spans;
mod stats;
mod steady;

use std::path::{Path, PathBuf};

use serde_json::Value;

use crate::batch::Batch;
use crate::report::{fingerprint, metric, nproc, result_line, Outcome};

const WORKLOADS: [&str; 3] = ["table1-study", "micro-variants", "serve-closed-loop"];

/// Scratch space for stores and span files, inside the working directory.
const OUT_DIR: &str = ".bench_out";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match dispatch(&args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("perfbench: {e}");
            2
        }
    };
    std::process::exit(code);
}

/// `--name value` pairs, rejecting anything not in `allowed`.
fn flags<'a>(args: &'a [String], allowed: &[&str]) -> Result<Vec<(&'a str, &'a str)>, String> {
    let mut out = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let name = a
            .strip_prefix("--")
            .filter(|n| allowed.contains(n))
            .ok_or_else(|| {
                format!(
                    "unexpected argument '{a}' (accepted: --{})",
                    allowed.join(", --")
                )
            })?;
        let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
        out.push((name, value.as_str()));
    }
    Ok(out)
}

fn get<'a>(flags: &[(&str, &'a str)], name: &str) -> Option<&'a str> {
    flags
        .iter()
        .rev()
        .find(|(n, _)| *n == name)
        .map(|(_, v)| *v)
}

fn num<T: std::str::FromStr>(
    flags: &[(&str, &str)],
    name: &str,
    default: Option<T>,
) -> Result<T, String> {
    match get(flags, name) {
        Some(v) => v
            .parse()
            .map_err(|_| format!("--{name} '{v}' is not a number")),
        None => default.ok_or_else(|| format!("--{name} is required")),
    }
}

fn workload(flags: &[(&str, &str)]) -> Result<&'static str, String> {
    let w = get(flags, "workload").ok_or("--workload is required")?;
    WORKLOADS
        .into_iter()
        .find(|n| *n == w)
        .ok_or_else(|| format!("unknown workload '{w}' (one of {})", WORKLOADS.join(", ")))
}

fn dispatch(args: &[String]) -> Result<i32, String> {
    match args.first().map(String::as_str) {
        Some("steady") => {
            let f = flags(
                &args[1..],
                &["workload", "runs", "seconds", "trace", "first-seed", "out"],
            )?;
            let w = workload(&f)?;
            let bounds = steady::Bounds::load(Path::new("BENCHMARK.json"))?;
            let out = get(&f, "out").map_or_else(
                || {
                    PathBuf::from(OUT_DIR)
                        .join("steady")
                        .join(format!("{w}.jsonl"))
                },
                PathBuf::from,
            );
            let ok = steady::steady(
                w,
                num(&f, "runs", Some(10))?,
                num(&f, "seconds", Some(bounds.run_seconds))?,
                num::<u8>(&f, "trace", Some(0))? == 1,
                num(&f, "first-seed", Some(1))?,
                &bounds,
                &out,
            )?;
            println!("records appended to {}", out.display());
            Ok(if ok { 0 } else { 1 })
        }
        Some("compare") => {
            let [a, b] = &args[1..] else {
                return Err("usage: perfbench compare <records-A> <records-B>".to_string());
            };
            let bounds = steady::Bounds::load(Path::new("BENCHMARK.json"))?;
            let (a, b) = (
                steady::read_records(Path::new(a))?,
                steady::read_records(Path::new(b))?,
            );
            Ok(if steady::compare(&a, &b, &bounds) {
                0
            } else {
                1
            })
        }
        Some("digests") => {
            let f = flags(&args[1..], &["workload"])?;
            let text = match workload(&f)? {
                "table1-study" => batch::record_digests(Batch::Table1)?,
                "micro-variants" => batch::record_digests(Batch::Micro)?,
                _ => serve::record_digests()?,
            };
            print!("{text}");
            Ok(0)
        }
        _ => {
            let f = flags(args, &["workload", "seed", "seconds", "trace"])?;
            let trace = match num::<u8>(&f, "trace", Some(0))? {
                0 => false,
                1 => true,
                t => return Err(format!("--trace must be 0 or 1, not {t}")),
            };
            let seconds: f64 = num(&f, "seconds", None)?;
            if !(seconds > 0.0 && seconds <= 600.0) {
                return Err(format!("--seconds {seconds} out of range (0, 600]"));
            }
            run(workload(&f)?, num(&f, "seed", None)?, seconds, trace)
        }
    }
}

fn run(workload: &'static str, seed: u64, seconds: f64, trace: bool) -> Result<i32, String> {
    let threads = nproc();
    vulfi_orch::set_jobs(threads);
    let out = PathBuf::from(OUT_DIR).join(format!("{workload}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&out);
    std::fs::create_dir_all(&out).map_err(|e| format!("{}: {e}", out.display()))?;
    let outcome = match (workload, trace) {
        ("table1-study", false) => batch::run(Batch::Table1, seed, seconds, &out),
        ("table1-study", true) => batch::run_traced(Batch::Table1, seed, &out, threads),
        ("micro-variants", false) => batch::run(Batch::Micro, seed, seconds, &out),
        ("micro-variants", true) => batch::run_traced(Batch::Micro, seed, &out, threads),
        (_, false) => serve::run(seed, seconds, &out, threads),
        (_, true) => serve::run_traced(seed, &out, threads),
    };
    let _ = std::fs::remove_dir_all(&out);
    let Outcome {
        mut metrics,
        tally,
        mut details,
        spans,
    } = outcome?;
    if trace {
        metrics.push(metric("failed_frac", tally.failed_frac(), "ratio"));
        let (all, missing) = report::complete_layers(&metrics);
        metrics = all;
        details.push(("not_exercised".to_string(), Value::from(missing)));
        let path = PathBuf::from(OUT_DIR)
            .join("spans")
            .join(format!("{workload}.json"));
        std::fs::create_dir_all(path.parent().expect("span path has a parent"))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        let text = serde_json::to_string(&spans::chrome_json(&spans))
            .expect("the vendored JSON writer is infallible");
        std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
        let layers: Vec<(String, Value)> = spans::layer_totals(&spans)
            .into_iter()
            .map(|(name, (count, total, own))| {
                (
                    name.to_string(),
                    serde_json::json!({
                        "spans": count,
                        "total_ms": total as f64 / 1e6,
                        "self_ms": own as f64 / 1e6,
                    }),
                )
            })
            .collect();
        details.push(("layers".to_string(), Value::Object(layers)));
        details.push((
            "span_file".to_string(),
            Value::from(path.display().to_string()),
        ));
    }
    let mut record = vec![
        ("workload".to_string(), Value::from(workload)),
        ("seed".to_string(), Value::from(seed)),
        ("seconds".to_string(), Value::from(seconds)),
        ("trace".to_string(), Value::from(trace)),
        ("threads".to_string(), Value::from(threads as u64)),
        ("fingerprint".to_string(), fingerprint(threads)),
        ("failures".to_string(), tally.to_json()),
    ];
    record.append(&mut details);
    let record = serde_json::json!({ "record": Value::Object(record) });
    println!(
        "{}",
        serde_json::to_string(&record).expect("the vendored JSON writer is infallible")
    );
    let failed = tally.failed();
    println!(
        "{}",
        result_line(failed == 0, tally.attempted.max(1), failed, &metrics)
    );
    Ok(if failed == 0 { 0 } else { 1 })
}
