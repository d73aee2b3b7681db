//! Service-level chaos and CLI contract tests, driven through the real
//! binary:
//!
//! - `vulfi serv` (the canonical typo) exits non-zero with a suggestion
//!   and the usage text on stderr;
//! - a daemon `kill -9`'d mid-campaign, then restarted over the same
//!   store, completes the study to a result **byte-identical** to a
//!   plain `vulfi study` of the same spec, and the store passes fsck.

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Output, Stdio};
use std::time::{Duration, Instant};

use vulfi_serve::Client;

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("vulfi_cli_serve_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn vulfi(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_vulfi"))
        .args(args)
        .output()
        .expect("spawn vulfi binary")
}

fn assert_ok(out: &Output, what: &str) {
    assert!(
        out.status.success(),
        "{what} failed (status {:?})\nstdout:\n{}\nstderr:\n{}",
        out.status.code(),
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr),
    );
}

/// Spawn `vulfi serve` on an ephemeral port and wait for it to publish
/// its address in `<store>/serve.addr`.
fn spawn_daemon(store: &Path, workers: &str) -> (Child, String) {
    spawn_daemon_with(store, workers, &[])
}

fn spawn_daemon_with(store: &Path, workers: &str, extra: &[&str]) -> (Child, String) {
    let addr_file = store.join("serve.addr");
    let _ = std::fs::remove_file(&addr_file);
    let child = Command::new(env!("CARGO_BIN_EXE_vulfi"))
        .args([
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--store",
            store.to_str().unwrap(),
            "--workers",
            workers,
        ])
        .args(extra)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn vulfi serve");
    let deadline = Instant::now() + Duration::from_secs(30);
    let addr = loop {
        if let Ok(a) = std::fs::read_to_string(&addr_file) {
            if !a.trim().is_empty() {
                break a.trim().to_string();
            }
        }
        assert!(
            Instant::now() < deadline,
            "daemon never published its address"
        );
        std::thread::sleep(Duration::from_millis(20));
    };
    (child, addr)
}

#[test]
fn serv_typo_exits_nonzero_with_suggestion_and_usage() {
    let out = vulfi(&["serv"]);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown command 'serv'"), "{stderr}");
    assert!(stderr.contains("did you mean 'serve'?"), "{stderr}");
    assert!(stderr.contains("usage:"), "{stderr}");

    // A plain bogus command still errors with usage, minus a suggestion.
    let out = vulfi(&["frobnicate"]);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown command 'frobnicate'"), "{stderr}");
    assert!(!stderr.contains("did you mean"), "{stderr}");
}

/// The dashboard must render zero-JS HTML before, during, and after a
/// study, and the ops event stream must reconstruct the job's full
/// lifecycle (submit → lease → shards → merge) from the log alone —
/// both over HTTP and through `vulfi events summarize` offline.
#[test]
fn dashboard_and_ops_events_reconstruct_the_lifecycle() {
    let store = temp_dir("dashboard");
    let (mut daemon, addr) = spawn_daemon(&store, "2");
    let client = Client::new(addr.clone());

    // Idle dashboard: self-contained, auto-refreshing, no scripts.
    let (status, html) = client.get_text("/dashboard").expect("idle dashboard");
    assert_eq!(status, 200, "{html}");
    assert!(html.contains("id=\"jobs\""), "{html}");
    assert!(html.contains("id=\"active\""), "{html}");
    assert!(html.contains("id=\"metrics\""), "{html}");
    assert!(html.contains("http-equiv=\"refresh\""), "{html}");
    assert!(!html.contains("<script"), "dashboard must be zero-JS");
    assert!(
        !html.contains("http://"),
        "dashboard must be self-contained"
    );

    // Run a small study to completion.
    let (status, doc) = client
        .post(
            "/studies",
            &serde_json::json!({
                "bench": "Blackscholes",
                "experiments": 10u64,
                "campaigns": 2u64,
                "shard_size": 5u64,
            }),
            &[("X-Vulfi-Tenant", "dash")],
        )
        .expect("submit");
    assert_eq!(status, 202, "{doc:?}");
    let key = doc
        .get("key")
        .and_then(|v| v.as_str())
        .expect("submit returns key")
        .to_string();
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        assert!(Instant::now() < deadline, "study never completed");
        let (_, s) = client.get(&format!("/studies/{key}")).expect("status");
        if s.get("result").is_some() {
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }

    // Dashboard now shows the job row.
    let (status, html) = client.get_text("/dashboard").expect("dashboard");
    assert_eq!(status, 200);
    assert!(html.contains("Blackscholes"), "{html}");
    assert!(html.contains(&key[..12]), "{html}");
    assert!(html.contains("dash"), "tenant must be shown: {html}");

    // Machine-readable slice of the ops log for this study.
    let (status, doc) = client
        .get(&format!("/studies/{key}/events"))
        .expect("events endpoint");
    assert_eq!(status, 200, "{doc:?}");
    let text = serde_json::to_string(&doc).unwrap();
    for kind in [
        "Submitted",
        "Started",
        "LeaseGranted",
        "ShardDone",
        "Merged",
        "Completed",
    ] {
        assert!(text.contains(kind), "missing {kind} in {text}");
    }

    let out = vulfi(&["shutdown", "--addr", &addr]);
    assert_ok(&out, "vulfi shutdown");
    daemon.wait().expect("daemon exit");

    // Offline reconstruction from the log alone.
    let out = vulfi(&["events", "summarize", "--store", store.to_str().unwrap()]);
    assert_ok(&out, "events summarize");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("completed"), "{stdout}");
    assert!(stdout.contains("merged"), "{stdout}");
    assert!(stdout.contains("worker"), "{stdout}");

    let out = vulfi(&[
        "events",
        "summarize",
        "--store",
        store.to_str().unwrap(),
        "--json",
    ]);
    assert_ok(&out, "events summarize --json");
    let s: serde_json::Value =
        serde_json::from_str(&String::from_utf8_lossy(&out.stdout)).expect("summary JSON");
    let jobs = s
        .get("jobs")
        .and_then(|v| v.as_array())
        .expect("jobs array");
    let job = jobs
        .iter()
        .find(|j| j.get("key").and_then(|k| k.as_str()) == Some(key.as_str()))
        .expect("summarized job for the study key");
    assert_eq!(job.get("state").and_then(|v| v.as_str()), Some("Completed"));
    assert_eq!(job.get("tenant").and_then(|v| v.as_str()), Some("dash"));
    assert_eq!(job.get("experiments").and_then(|v| v.as_u64()), Some(20));
    assert!(job.get("shards").and_then(|v| v.as_u64()).unwrap_or(0) >= 4);

    // Tail renders one line per event; the store-wide fsck covers the
    // journal and reports it healthy.
    let out = vulfi(&["events", "tail", "--store", store.to_str().unwrap()]);
    assert_ok(&out, "events tail");
    assert!(String::from_utf8_lossy(&out.stdout).contains("completed"));
    let out = vulfi(&[
        "store",
        "fsck",
        "--store",
        store.to_str().unwrap(),
        "--json",
    ]);
    assert_ok(&out, "store fsck");
    assert!(String::from_utf8_lossy(&out.stdout).contains("\"journal\""));
}

/// Telemetry + alerting end to end: a daemon sampling on a fast
/// interval must persist a telemetry series, fire a deliberately-firing
/// alert rule through `GET /alerts` and as ops events, render the alert
/// panel and inline-SVG sparklines on the (still zero-JS) dashboard,
/// resume the series across a restart, and the offline `vulfi alerts
/// check` over the same store must exit non-zero on the firing rule.
#[test]
fn telemetry_alerts_fire_over_http_dashboard_and_cli() {
    let store = temp_dir("telemetry");
    std::fs::create_dir_all(&store).expect("mkdir store");
    // `exp_s_below 1e9` always fires once one sample exists (an idle
    // daemon does 0 exp/s); `sdc_rate_above 1e9` can never fire — a
    // percentage is bounded by 100.
    let rules = store.join("alerts.toml");
    std::fs::write(
        &rules,
        "[throughput-floor]\nkind = \"exp_s_below\"\nthreshold = 1e9\n\n\
         [impossible]\nkind = \"sdc_rate_above\"\nthreshold = 1e9\nsustain_secs = 1\n",
    )
    .expect("write rules");
    let (mut daemon, addr) = spawn_daemon_with(
        &store,
        "2",
        &[
            "--rules",
            rules.to_str().unwrap(),
            "--telemetry-interval-ms",
            "50",
        ],
    );
    let client = Client::new(addr.clone());

    // Wait for the sampler to take enough samples for a sparkline and
    // for the always-true rule to fire.
    let deadline = Instant::now() + Duration::from_secs(30);
    let alerts = loop {
        assert!(Instant::now() < deadline, "alert never fired");
        let (status, doc) = client.get("/alerts").expect("GET /alerts");
        assert_eq!(status, 200, "{doc:?}");
        if doc.get("firing").and_then(|v| v.as_u64()).unwrap_or(0) >= 1 {
            break doc;
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    let text = serde_json::to_string(&alerts).unwrap();
    assert!(text.contains("throughput-floor"), "{text}");
    assert!(text.contains("impossible"), "{text}");
    let firing: Vec<&str> = alerts
        .get("alerts")
        .and_then(|v| v.as_array())
        .expect("alerts array")
        .iter()
        .filter(|a| a.get("firing").and_then(|v| v.as_bool()) == Some(true))
        .filter_map(|a| a.get("rule").and_then(|v| v.as_str()))
        .collect();
    assert_eq!(firing, ["throughput-floor"], "only the floor rule fires");

    // Dashboard: alert panel + sparklines, still zero-JS.
    let deadline = Instant::now() + Duration::from_secs(30);
    let html = loop {
        assert!(Instant::now() < deadline, "sparkline never rendered");
        let (status, html) = client.get_text("/dashboard").expect("dashboard");
        assert_eq!(status, 200);
        if html.contains("class=\"spark\"") {
            break html;
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    assert!(html.contains("id=\"alerts\""), "{html}");
    assert!(html.contains("id=\"telemetry\""), "{html}");
    assert!(html.contains("FIRING"), "{html}");
    assert!(html.contains("throughput-floor"), "{html}");
    assert!(html.contains("<svg"), "{html}");
    assert!(html.contains("<polyline"), "{html}");
    assert!(!html.contains("<script"), "dashboard must stay zero-JS");

    // Firing transitions are operational events.
    let out = vulfi(&[
        "events",
        "tail",
        "--store",
        store.to_str().unwrap(),
        "--top",
        "50",
    ]);
    assert_ok(&out, "events tail");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("alert-firing"), "{stdout}");
    assert!(stdout.contains("throughput-floor"), "{stdout}");

    let out = vulfi(&["shutdown", "--addr", &addr]);
    assert_ok(&out, "vulfi shutdown");
    daemon.wait().expect("daemon exit");

    // The series survived on disk.
    let series = store.join("telemetry").join("series.jsonl");
    assert!(series.exists(), "telemetry series must be persisted");
    let persisted = std::fs::read_to_string(&series).unwrap().lines().count();
    assert!(persisted >= 2, "expected several samples, got {persisted}");

    // Offline check over the persisted series: non-zero exit, FIRING in
    // the rendered table; the impossible rule must stay ok.
    let out = vulfi(&[
        "alerts",
        "check",
        "--rules",
        rules.to_str().unwrap(),
        "--store",
        store.to_str().unwrap(),
    ]);
    assert_eq!(
        out.status.code(),
        Some(1),
        "firing alert must exit non-zero"
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("FIRING"), "{stdout}");
    assert!(stdout.contains("throughput-floor"), "{stdout}");
    assert!(stdout.contains("ok"), "{stdout}");

    // A restarted daemon resumes the same series file instead of
    // truncating it.
    let (mut daemon, addr) = spawn_daemon_with(
        &store,
        "1",
        &[
            "--rules",
            rules.to_str().unwrap(),
            "--telemetry-interval-ms",
            "50",
        ],
    );
    let client = Client::new(addr.clone());
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        assert!(Instant::now() < deadline, "restarted daemon never sampled");
        let grown = std::fs::read_to_string(&series).unwrap().lines().count();
        if grown > persisted {
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    let out = vulfi(&["shutdown", "--addr", &addr]);
    assert_ok(&out, "second shutdown");
    daemon.wait().expect("daemon exit");
    let _ = client;

    // The resumed log is still a healthy CheckedLog.
    let out = vulfi(&[
        "store",
        "fsck",
        "--store",
        store.to_str().unwrap(),
        "--json",
    ]);
    assert_ok(&out, "store fsck");
    assert!(String::from_utf8_lossy(&out.stdout).contains("\"telemetry\""));
}

/// The acceptance test for the service: kill -9 the daemon while workers
/// hold leased shards mid-campaign, restart over the same store, and the
/// completed study must merge bit-identically to `vulfi study`.
#[test]
fn killed_daemon_resumes_to_bit_identical_study() {
    let serve_store = temp_dir("chaos_serve");
    let study_store = temp_dir("chaos_study");

    let (mut daemon, addr) = spawn_daemon(&serve_store, "2");
    let client = Client::new(addr);

    // Enough shards (40) that the kill below lands mid-campaign.
    let (status, doc) = client
        .post(
            "/studies",
            &serde_json::json!({
                "bench": "Blackscholes",
                "experiments": 25u64,
                "campaigns": 8u64,
                "shard_size": 5u64,
            }),
            &[("X-Vulfi-Tenant", "chaos")],
        )
        .expect("submit");
    assert_eq!(status, 202, "{doc:?}");
    let key = doc
        .get("key")
        .and_then(|v| v.as_str())
        .expect("submit returns key")
        .to_string();

    // Wait until at least one shard has landed but the study is not
    // done, then SIGKILL the daemon — workers die holding leases, with
    // in-flight shards lost and the queue job stuck Running.
    let deadline = Instant::now() + Duration::from_secs(60);
    let mut killed_midway = false;
    loop {
        assert!(Instant::now() < deadline, "study never made progress");
        let (_, s) = client.get(&format!("/studies/{key}")).expect("status");
        let covered = s.get("covered").and_then(|v| v.as_u64()).unwrap_or(0);
        let total = s.get("total").and_then(|v| v.as_u64()).unwrap_or(u64::MAX);
        if covered > 0 && covered < total {
            daemon.kill().expect("SIGKILL daemon");
            killed_midway = true;
            break;
        }
        if s.get("result").is_some() {
            // The study outran the poll loop; the restart below still
            // exercises recovery of a completed store.
            daemon.kill().expect("SIGKILL daemon");
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    daemon.wait().expect("reap killed daemon");

    // A fresh daemon over the same store re-queues the orphaned job and
    // re-runs exactly the missing shards.
    let (mut daemon, addr) = spawn_daemon(&serve_store, "2");
    let client = Client::new(addr.clone());
    let deadline = Instant::now() + Duration::from_secs(120);
    let service_result = loop {
        assert!(
            Instant::now() < deadline,
            "restarted daemon never finished the study"
        );
        let (_, s) = client
            .get(&format!("/studies/{key}"))
            .expect("status after restart");
        assert_ne!(
            s.get("state").and_then(|v| v.as_str()),
            Some("failed"),
            "{s:?}"
        );
        if let Some(r) = s.get("result") {
            break r.clone();
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    eprintln!("killed_midway={killed_midway}");

    // Reference: the same spec through `vulfi study` into a fresh store.
    let study_out = vulfi(&[
        "study",
        "--bench",
        "Blackscholes",
        "--experiments",
        "25",
        "--campaigns",
        "8",
        "--shard-size",
        "5",
        "--store",
        study_store.to_str().unwrap(),
        "--json",
    ]);
    assert_ok(&study_out, "reference vulfi study");
    let reference: serde_json::Value =
        serde_json::from_str(&String::from_utf8_lossy(&study_out.stdout)).expect("study JSON");

    // Same content-addressed key, and an identical merged result.
    assert_eq!(
        reference.get("key").and_then(|v| v.as_str()),
        Some(key.as_str()),
        "HTTP submission and CLI study must derive the same study key"
    );
    for field in [
        "mean_sdc",
        "margin_95",
        "samples",
        "counts",
        "campaigns",
        "converged",
    ] {
        let service = service_result
            .get(field)
            .unwrap_or_else(|| panic!("service result missing {field}"));
        let cli = reference
            .get(field)
            .unwrap_or_else(|| panic!("study output missing {field}"));
        assert_eq!(
            serde_json::to_string(service).unwrap(),
            serde_json::to_string(cli).unwrap(),
            "result field '{field}' diverged after kill + restart"
        );
    }

    // Byte-level check over the stores themselves: the summary documents
    // must be identical, proving the shard merge (not just the rendered
    // numbers) converged to the same state.
    let a = vulfi(&[
        "results",
        "summary",
        "--store",
        serve_store.to_str().unwrap(),
        "--json",
    ]);
    let b = vulfi(&[
        "results",
        "summary",
        "--store",
        study_store.to_str().unwrap(),
        "--json",
    ]);
    assert_ok(&a, "results summary (service store)");
    assert_ok(&b, "results summary (study store)");
    assert_eq!(
        String::from_utf8_lossy(&a.stdout),
        String::from_utf8_lossy(&b.stdout),
        "service store and study store must summarize byte-identically"
    );

    // Graceful shutdown via the CLI, then the store must pass fsck (the
    // kill left at most a healed torn tail behind).
    let out = vulfi(&["shutdown", "--addr", &addr]);
    assert_ok(&out, "vulfi shutdown");
    let status = daemon.wait().expect("daemon exit");
    assert!(
        status.success(),
        "daemon exited {status:?} after graceful shutdown"
    );
    let fsck = vulfi(&["store", "fsck", "--store", serve_store.to_str().unwrap()]);
    assert_ok(&fsck, "store fsck after chaos");
}
