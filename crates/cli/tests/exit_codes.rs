//! Exit-code contract of the real binary, pinned by subprocess tests:
//!
//! - `vulfi store fsck` / `vulfi trace fsck` exit **non-zero** when a
//!   log is corrupt and `--repair` was not given, zero after repair.
//!   `store fsck` covers every log under the store root: shard logs,
//!   the service journal and the telemetry series.
//! - `vulfi gauntlet run` exits non-zero on an invariant breach and on
//!   a partial store without `--resume`; a SIGKILLed gauntlet resumed
//!   with `--resume` merges to the bit-identical verdicts of an
//!   uninterrupted run in a fresh store.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("vulfi_cli_exit_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn vulfi(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_vulfi"))
        .args(args)
        .output()
        .expect("spawn vulfi binary")
}

fn context(out: &Output) -> String {
    format!(
        "status {:?}\nstdout:\n{}\nstderr:\n{}",
        out.status.code(),
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr),
    )
}

fn assert_exit(out: &Output, want: i32, what: &str) {
    assert_eq!(out.status.code(), Some(want), "{what}: {}", context(out));
}

/// Flip one byte in the middle of the *first* line of `log` — a
/// non-tail corruption, which fsck must treat as loud (a torn tail
/// could be an interrupted writer and is tolerated).
fn corrupt_first_line(log: &Path) {
    let mut bytes = std::fs::read(log).unwrap();
    let first_nl = bytes.iter().position(|&b| b == b'\n').unwrap();
    let target = first_nl / 2;
    bytes[target] ^= 0x01;
    std::fs::write(log, &bytes).unwrap();
}

fn find_log(root: &Path, file: &str) -> PathBuf {
    for entry in std::fs::read_dir(root).unwrap() {
        let p = entry.unwrap().path().join(file);
        if p.is_file() {
            return p;
        }
    }
    panic!("no {file} under {}", root.display());
}

#[test]
fn store_fsck_exit_codes_pin_corruption_policy() {
    let store = temp_dir("store_fsck");
    let store_s = store.to_str().unwrap();
    let out = vulfi(&[
        "study",
        "--bench",
        "vector sum",
        "--experiments",
        "8",
        "--campaigns",
        "4",
        "--seed",
        "11",
        "--shard-size",
        "4",
        "--store",
        store_s,
    ]);
    assert_exit(&out, 0, "seed study");

    assert_exit(
        &vulfi(&["store", "fsck", "--store", store_s]),
        0,
        "clean fsck",
    );

    corrupt_first_line(&find_log(&store, "shards.jsonl"));
    assert_exit(
        &vulfi(&["store", "fsck", "--store", store_s]),
        1,
        "fsck must fail loudly on corruption without --repair",
    );
    assert_exit(
        &vulfi(&["store", "fsck", "--store", store_s, "--repair"]),
        0,
        "fsck --repair quarantines and succeeds",
    );
    assert_exit(
        &vulfi(&["store", "fsck", "--store", store_s]),
        0,
        "store is clean after repair",
    );
}

#[test]
fn store_fsck_covers_the_journal_and_telemetry_series() {
    let store = temp_dir("service_fsck");
    let store_s = store.to_str().unwrap();
    let mut journal = vulfi_orch::Journal::open(&store).unwrap();
    for key in ["aaaa", "bbbb"] {
        journal
            .submit(&vulfi::StudySpec::default(), key, None)
            .unwrap();
    }
    let series = vulfi_orch::TelemetryLog::open(&store).unwrap();
    let mut sampler = vulfi_orch::Sampler::new();
    let snapshot = vulfi_orch::Metrics::new().snapshot();
    for t in [1_000, 2_000] {
        let sample = sampler.sample_at(t, &snapshot, vulfi_orch::SamplerInputs::default());
        series.append(&sample).unwrap();
    }
    assert_exit(
        &vulfi(&["store", "fsck", "--store", store_s]),
        0,
        "clean fsck",
    );

    for log in [
        store.join("events").join("ops.jsonl"),
        store.join("telemetry").join("series.jsonl"),
    ] {
        corrupt_first_line(&log);
        let out = vulfi(&["store", "fsck", "--store", store_s]);
        assert_exit(&out, 1, "fsck must fail loudly on corruption");
        assert!(
            String::from_utf8_lossy(&out.stdout).contains("CORRUPT"),
            "{}",
            context(&out)
        );
        assert_exit(
            &vulfi(&["store", "fsck", "--store", store_s, "--repair"]),
            0,
            "fsck --repair quarantines and succeeds",
        );
        assert_exit(
            &vulfi(&["store", "fsck", "--store", store_s]),
            0,
            "store is clean after repair",
        );
    }
}

#[test]
fn trace_fsck_exit_codes_pin_corruption_policy() {
    let store = temp_dir("trace_fsck_store");
    let trace = temp_dir("trace_fsck_trace");
    let store_s = store.to_str().unwrap();
    let trace_s = trace.to_str().unwrap();
    let out = vulfi(&[
        "study",
        "--bench",
        "vector sum",
        "--experiments",
        "8",
        "--campaigns",
        "4",
        "--seed",
        "11",
        "--shard-size",
        "4",
        "--store",
        store_s,
        "--trace",
        trace_s,
    ]);
    assert_exit(&out, 0, "seed traced study");

    assert_exit(
        &vulfi(&["trace", "fsck", "--trace", trace_s]),
        0,
        "clean trace fsck",
    );

    corrupt_first_line(&find_log(&trace, "traces.jsonl"));
    assert_exit(
        &vulfi(&["trace", "fsck", "--trace", trace_s]),
        1,
        "trace fsck must fail loudly on corruption without --repair",
    );
    assert_exit(
        &vulfi(&["trace", "fsck", "--trace", trace_s, "--repair"]),
        0,
        "trace fsck --repair quarantines and succeeds",
    );
}

const GAUNTLET_SCENARIO: &str = r#"
name = "exit-code-gauntlet"
models = ["single-bit-flip", "stuck-at:3=1", "memory-cell"]
isas = ["avx"]
benches = ["vector sum"]
categories = ["pure-data"]
experiments = 10
campaigns = 4
seed = 13
shard_size = 2

[invariants]
crash_rate_max = 90.0
"#;

fn write_scenario(dir: &Path, name: &str, text: &str) -> String {
    std::fs::create_dir_all(dir).unwrap();
    let p = dir.join(name);
    std::fs::write(&p, text).unwrap();
    p.to_str().unwrap().to_string()
}

#[test]
fn gauntlet_breach_exits_nonzero_and_pass_exits_zero() {
    let dir = temp_dir("gauntlet_breach");
    let store = dir.join("store");
    let store_s = store.to_str().unwrap();
    let pass = write_scenario(&dir, "pass.toml", GAUNTLET_SCENARIO);
    let fail = write_scenario(
        &dir,
        "fail.toml",
        &GAUNTLET_SCENARIO.replace("crash_rate_max = 90.0", "sdc_rate_max = 0.0"),
    );

    let out = vulfi(&["gauntlet", "run", &pass, "--store", store_s]);
    assert_exit(&out, 0, "passing gauntlet");
    let stdout = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(stdout.contains("0 breaches: PASS"), "{stdout}");

    // Same cells, impossible invariant: cache hits, but verdict FAIL.
    let out = vulfi(&["gauntlet", "run", &fail, "--store", store_s, "--resume"]);
    assert_exit(&out, 1, "breached gauntlet must exit non-zero");
    let stdout = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(stdout.contains("FAIL (sdc_rate_max)"), "{stdout}");
}

#[test]
fn gauntlet_killed_and_resumed_matches_uninterrupted_run() {
    let dir = temp_dir("gauntlet_kill");
    let killed_store = dir.join("killed");
    let clean_store = dir.join("clean");
    let scenario = write_scenario(&dir, "kill.toml", GAUNTLET_SCENARIO);

    // SIGKILL the runner mid-gauntlet. If the process wins the race and
    // finishes first, the resume below is a pure cache hit — the
    // comparison still holds, the test just exercises less.
    let mut child = Command::new(env!("CARGO_BIN_EXE_vulfi"))
        .args([
            "gauntlet",
            "run",
            &scenario,
            "--store",
            killed_store.to_str().unwrap(),
            "--jobs",
            "1",
        ])
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn gauntlet");
    std::thread::sleep(std::time::Duration::from_millis(120));
    let _ = child.kill();
    let _ = child.wait();

    let resumed = vulfi(&[
        "gauntlet",
        "run",
        &scenario,
        "--store",
        killed_store.to_str().unwrap(),
        "--resume",
        "--json",
    ]);
    assert_exit(&resumed, 0, "resumed gauntlet");

    let clean = vulfi(&[
        "gauntlet",
        "run",
        &scenario,
        "--store",
        clean_store.to_str().unwrap(),
        "--json",
    ]);
    assert_exit(&clean, 0, "uninterrupted gauntlet");

    // The JSON verdicts carry every per-cell tally (key, n, sdc, benign,
    // crash, rates, invariant arithmetic) — bit-identical merges mean
    // byte-identical documents.
    assert_eq!(
        String::from_utf8_lossy(&resumed.stdout),
        String::from_utf8_lossy(&clean.stdout),
        "kill -9 + --resume must reproduce the uninterrupted verdicts"
    );
}
